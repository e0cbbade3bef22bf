package stats

import "testing"

func TestQuantile(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sorted []float64
		q      float64
		want   float64
	}{
		{"empty", nil, 0.5, 0},
		{"single element", []float64{7}, 0.5, 7},
		{"single element q=1", []float64{7}, 1, 7},
		{"q=0 is the minimum", []float64{1, 2, 4, 8}, 0, 1},
		{"q=1 is the maximum", []float64{1, 2, 4, 8}, 1, 8},
		{"exact order statistic", []float64{1, 2, 4}, 0.5, 2},
		{"interpolates the median", []float64{1, 2, 4, 8}, 0.5, 3},
		{"interpolates a quartile", []float64{0, 10, 20, 30, 40}, 0.3, 12},
		{"interpolates a tail", []float64{0, 100}, 0.95, 95},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := Quantile(tc.sorted, tc.q); got != tc.want {
				t.Fatalf("Quantile(%v, %v) = %v, want %v", tc.sorted, tc.q, got, tc.want)
			}
		})
	}
}
