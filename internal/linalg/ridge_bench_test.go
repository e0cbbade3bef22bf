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
// batch (memoised theta plus one batched pass of confidence widths into
// a reused buffer, as C2UCB.ScoresInto runs it) — at a context
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

// BenchmarkThetaCached measures the memoised theta read at the TPC-DS
// context dimension (83): between observations every call after the
// first is a cache hit, which is exactly the repeated same-round
// profile of C2UCB.ScoresInto and Theta reads. Compare
// BenchmarkThetaRecompute for what each of those calls paid before the
// memo.
func BenchmarkThetaCached(b *testing.B) {
	const dim = 83
	contexts := benchContexts(dim, 32, 1)
	rs := NewRidgeState(dim, 0.25)
	for _, x := range contexts {
		rs.ObserveSparse(x, 1.0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += rs.Theta()[0]
	}
	benchSink = sink
}

// BenchmarkThetaRecompute is the dense V^{-1}b mat-vec the memo
// amortises — the per-call cost of the pre-memo Theta().
func BenchmarkThetaRecompute(b *testing.B) {
	const dim = 83
	contexts := benchContexts(dim, 32, 1)
	rs := NewRidgeState(dim, 0.25)
	for _, x := range contexts {
		rs.ObserveSparse(x, 1.0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += rs.VInv.MulVec(rs.B)[0]
	}
	benchSink = sink
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
