// Package stats holds the summary statistics the experiment renderers
// and the fleet report share, so both state a quantile the same way.
package stats

// Quantile returns the q-th quantile (q in [0, 1]) of an ascending
// slice, interpolating linearly between the two nearest order
// statistics; an empty slice yields 0.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
