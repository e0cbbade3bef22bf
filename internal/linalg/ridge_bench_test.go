package linalg

import (
	"math/rand"
	"testing"
)

// benchContexts builds a deterministic batch of sparse contexts of the
// shape the C2UCB feeds the ridge state (most components zero, a few
// prefix/statistic components set).
func benchContexts(dim, n int, seed int64) []SparseVector {
	rng := rand.New(rand.NewSource(seed))
	out := make([]SparseVector, n)
	for i := range out {
		x := NewVector(dim)
		for k := 0; k < dim/8+2; k++ {
			x[rng.Intn(dim)] = rng.Float64()
		}
		out[i] = SparseFromDense(x)
	}
	return out
}

// BenchmarkRidgeObserveScoreSparse measures the C2UCB hot path — folding
// a round's observations into the ridge state and scoring a candidate
// batch (theta plus one batched pass of confidence widths into a reused
// buffer, as C2UCB.ScoresInto runs it) — at a context
// dimension typical of the benchmark schemas.
func BenchmarkRidgeObserveScoreSparse(b *testing.B) {
	const dim = 64
	const arms = 48
	contexts := benchContexts(dim, arms, 1)
	widths := make([]float64, arms)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := NewRidgeState(dim, 0.25)
		for r := 0; r < 8; r++ {
			for _, x := range contexts[:8] {
				rs.ObserveSparse(x, 1.0)
			}
			theta := rs.Theta()
			rs.ConfidenceWidthBatch(contexts, widths)
			var sink float64
			for k, x := range contexts {
				sink += theta.DotSparse(x) + widths[k]
			}
			benchSink = sink
		}
	}
}

// BenchmarkRidgeForget measures shift-scaled forgetting (scatter-matrix
// discount plus the Cholesky rebase), which runs on every detected
// workload shift.
func BenchmarkRidgeForget(b *testing.B) {
	const dim = 64
	contexts := benchContexts(dim, 32, 2)
	rs := NewRidgeState(dim, 0.25)
	for _, x := range contexts {
		rs.ObserveSparse(x, 1.0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.Forget(0.5)
	}
}

var benchSink float64
