package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile for
// it to say anything about the tail.
const minTail = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// ascending samples, or NaN when there are none.
func percentile(asc []float64, p int) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	k := rankOf(p, len(asc))
	if k < 1 {
		k = 1
	}
	return asc[k-1]
}

// median is the nearest-rank 50th percentile of unsorted samples.
func median(xs []float64) float64 { return percentile(sorted(xs), 50) }

// rankOf is the 1-based nearest rank of the p-th percentile of n
// samples: ceil(p*n/100), in integers so no rounding can move it.
func rankOf(p, n int) int { return (p*n + 99) / 100 }

// tailPercentile returns the highest whole percentile of n samples that
// still has at least minTail samples beyond its rank, or 0 when n is too
// small for any.
func tailPercentile(n int) int {
	for p := 99; p >= 1; p-- {
		if n-rankOf(p, n) >= minTail {
			return p
		}
	}
	return 0
}
