package main

import "testing"

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {10, 0}, {11, 9}, {20, 50}, {200, 95}, {250, 96}, {300, 96}, {600, 98}, {2500, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// The rule itself: at least minTail samples beyond the chosen
	// percentile, and fewer beyond the next one up.
	for n := 1; n <= 3000; n++ {
		p := tailPercentile(n)
		if p == 0 {
			continue
		}
		if beyond := n - rankOf(p, n); beyond < minTail {
			t.Fatalf("n=%d: p%d leaves %d samples beyond it", n, p, beyond)
		}
		if p < 99 && n-rankOf(p+1, n) >= minTail {
			t.Fatalf("n=%d: p%d is not the highest percentile with %d beyond", n, p, minTail)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	asc := sorted(xs)
	for _, c := range []struct {
		p    int
		want float64
	}{{1, 1}, {50, 50}, {95, 95}, {100, 100}} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("p%d = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{5, 1, 9, 3, 7, 2, 8, 4, 6}); got != 5 {
		t.Errorf("median of 1..9 = %v, want 5", got)
	}
	if xs[0] != 100 {
		t.Error("sorted modified its input")
	}
}
