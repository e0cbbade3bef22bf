package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// randomRidgeWorkload drives a state through a randomized
// ObserveSparse/Forget sequence, with a partial Forget every
// forgetEvery steps (0 disables).
func randomRidgeWorkload(dim, steps, forgetEvery int, seed int64) *RidgeState {
	rng := rand.New(rand.NewSource(seed))
	rs := NewRidgeState(dim, 0.25)
	for s := 0; s < steps; s++ {
		x := NewVector(dim)
		for k := 0; k < dim/6+1; k++ {
			x[rng.Intn(dim)] = rng.NormFloat64()
		}
		rs.ObserveSparse(SparseFromDense(x), rng.NormFloat64()*10)
		if forgetEvery > 0 && s > 0 && s%forgetEvery == 0 {
			rs.Forget(0.3 + 0.4*rng.Float64())
		}
	}
	return rs
}

// TestRidgeDriftBoundedAgainstFreshInverse is the numerical evidence
// for the single Sherman–Morrison ridge: over 10⁵ seeded sparse
// observations at the TPC-DS context dimension (83), with and without a
// Forget every 5000 observations, the maintained theta and the
// confidence widths of 64 probe contexts must stay within 1e-12
// relative error of the same quantities computed from a fresh inverse
// of V. With the rebase cadence this run measures about 1e-15; with
// the cadence disabled it still reaches only about 3e-13, so the test
// pins the accuracy of the one ridge core rather than the cadence
// itself (TestSinceRebaseCounter pins that).
func TestRidgeDriftBoundedAgainstFreshInverse(t *testing.T) {
	const (
		dim   = 83
		steps = 100000
		tol   = 1e-12
	)
	sparse := func(rng *rand.Rand) SparseVector {
		x := NewVector(dim)
		for k := 0; k < 2+rng.Intn(10); k++ {
			x[rng.Intn(dim)] = rng.Float64()
		}
		return SparseFromDense(x)
	}
	for _, tc := range []struct {
		name        string
		forgetEvery int
	}{
		{"no forget", 0},
		{"forget every 5000", 5000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(83))
			rs := NewRidgeState(dim, 0.25)
			for s := 1; s <= steps; s++ {
				rs.ObserveSparse(sparse(rng), rng.NormFloat64()*10)
				// Forgets land mid-interval, so the comparison below is
				// not taken right after the exact rebase inside Forget.
				if tc.forgetEvery > 0 && s%tc.forgetEvery == tc.forgetEvery/2 {
					rs.Forget(0.3)
				}
			}
			fresh, err := cloneMatrix(rs.V).Inverse()
			if err != nil {
				t.Fatal(err)
			}

			theta, want := rs.Theta(), fresh.MulVec(rs.B)
			var thetaErr float64
			for i := range want {
				thetaErr = math.Max(thetaErr, math.Abs(theta[i]-want[i]))
			}
			thetaErr /= maxAbs(want)

			var widthErr float64
			for p := 0; p < 64; p++ {
				x := sparse(rng)
				w := width(rs, x)
				wantW := math.Sqrt(fresh.QuadraticFormSparse(x))
				widthErr = math.Max(widthErr, math.Abs(w-wantW)/wantW)
			}
			t.Logf("relative error vs fresh inverse: theta %.2g, widths %.2g (%d updates since the last rebase)",
				thetaErr, widthErr, rs.sinceRebase)
			if thetaErr > tol || widthErr > tol {
				t.Fatalf("drift past %g: theta %g, widths %g", tol, thetaErr, widthErr)
			}
		})
	}
}

// TestRidgeCoreBatchMatchesSingleCalls pins the batched width kernel to
// the per-arm sparse quadratic form and to one-context batches bit for
// bit: batching is an optimisation, never a numeric change. The batch
// mixes in all-zero contexts, a second pass must read no stale scratch,
// and a mismatched output length must panic.
func TestRidgeCoreBatchMatchesSingleCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const dim = 32
	var contexts []SparseVector
	for i := 0; i < 40; i++ {
		x := NewVector(dim)
		if i%17 != 0 { // every 17th context stays all-zero
			for k := 0; k < 5; k++ {
				x[rng.Intn(dim)] = rng.NormFloat64()
			}
		}
		contexts = append(contexts, SparseFromDense(x))
	}
	rs := NewRidgeState(dim, 0.25)
	for i := 0; i < 12; i++ {
		rs.ObserveSparse(contexts[i], rng.NormFloat64())
	}
	widths := make([]float64, len(contexts))
	rs.ConfidenceWidthBatch(contexts, widths)
	for i, x := range contexts {
		if w := width(rs, x); w != widths[i] {
			t.Fatalf("batch width[%d]=%v, single=%v", i, widths[i], w)
		}
		if w := widthFromQuad(rs.VInv.QuadraticFormSparse(x)); w != widths[i] {
			t.Fatalf("quad[%d] inconsistent with width", i)
		}
	}
	again := make([]float64, len(contexts))
	rs.ConfidenceWidthBatch(contexts, again)
	for i := range widths {
		if again[i] != widths[i] {
			t.Fatalf("second batch pass changed width[%d]: %v then %v", i, widths[i], again[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("batch length mismatch did not panic")
		}
	}()
	rs.ConfidenceWidthBatch(contexts, make([]float64, 2))
}

// TestRidgeCoresStayPositiveDefinite is the numerical-hygiene property
// test: through a long randomized ObserveSparse/Forget sequence V must stay
// exactly symmetric and factorisable, and no width may come out NaN.
func TestRidgeCoresStayPositiveDefinite(t *testing.T) {
	const dim = 20
	rs := randomRidgeWorkload(dim, 500, 40, 3)

	for i := 0; i < dim; i++ {
		for j := i + 1; j < dim; j++ {
			if rs.V.At(i, j) != rs.V.At(j, i) {
				t.Fatalf("V asymmetric at (%d,%d): %v vs %v", i, j, rs.V.At(i, j), rs.V.At(j, i))
			}
		}
	}
	if _, err := rs.V.Cholesky(); err != nil {
		t.Fatalf("V lost positive definiteness: %v", err)
	}

	rng := rand.New(rand.NewSource(4))
	for probe := 0; probe < 10; probe++ {
		x := NewVector(dim)
		x[rng.Intn(dim)] = rng.NormFloat64()
		if w := width(rs, SparseFromDense(x)); math.IsNaN(w) || w < 0 {
			t.Fatalf("width NaN/negative: %v", w)
		}
	}
}

// TestWidthClampNearSingular exercises the widthFromQuad clamp with an
// adversarial near-singular state: after folding in enormous collinear
// observations, the maintained inverse's tiny quadratic forms sit at
// the edge of floating-point cancellation, and a corrupted inverse (the
// kind of drift the rebase machinery exists to bound) pushes them
// negative outright. The width must clamp to 0, never NaN.
func TestWidthClampNearSingular(t *testing.T) {
	const dim = 6
	rs := NewRidgeState(dim, 0.25)
	x := SparseVector{Dim: dim, Idx: []int{0}, Val: []float64{1e8}}
	// 200 collinear updates stay under both rebase triggers, so the
	// inverse keeps its accumulated rank-1 arithmetic.
	for i := 0; i < 200; i++ {
		rs.ObserveSparse(x, 1)
	}
	if rs.sinceRebase != 200 {
		t.Fatalf("a rebase fired (sinceRebase %d); the test needs the drifted inverse", rs.sinceRebase)
	}
	if w := width(rs, x); math.IsNaN(w) || w < 0 {
		t.Fatalf("near-singular width: %v", w)
	}

	// Adversarial corruption: a drifted inverse whose quadratic form for
	// e_0 is a tiny negative number. sqrt would return NaN; the clamp
	// must return exactly 0.
	rs.VInv.Set(0, 0, -1e-18)
	probe := SparseVector{Dim: dim, Idx: []int{0}, Val: []float64{1}}
	if w := width(rs, probe); w != 0 {
		t.Fatalf("clamped width = %v, want exactly 0", w)
	}
	if got := widthFromQuad(-1e-300); got != 0 {
		t.Fatalf("widthFromQuad(-1e-300) = %v, want 0", got)
	}
}

// TestThetaTracksState pins that Theta is V^{-1} b of the current
// state: it equals the maintained inverse times b, and every state
// change (ObserveSparse, Forget) moves it.
func TestThetaTracksState(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const dim = 12
	rs := NewRidgeState(dim, 0.25)
	x := NewVector(dim)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	rs.ObserveSparse(SparseFromDense(x), 3)

	t1 := rs.Theta()
	if want := rs.VInv.MulVec(rs.B); !vecEqual(t1, want, 0) {
		t.Fatalf("theta %v != V^{-1} b %v", t1, want)
	}

	y := SparseVector{Dim: dim, Idx: []int{3}, Val: []float64{2}}
	rs.ObserveSparse(y, -5)
	t2 := rs.Theta()
	if vecEqual(t2, t1, 0) {
		t.Fatal("theta unchanged after observation")
	}
	if want := rs.VInv.MulVec(rs.B); !vecEqual(t2, want, 0) {
		t.Fatalf("post-observe theta %v != V^{-1} b %v", t2, want)
	}

	rs.ObserveSparse(y, 2)
	t3 := rs.Theta()
	if vecEqual(t3, t2, 0) {
		t.Fatal("theta unchanged after a second observation")
	}

	rs.Forget(0.9)
	if vecEqual(rs.Theta(), t3, 0) {
		t.Fatal("theta unchanged after Forget")
	}
}

// TestSinceRebaseCounter pins the separated counter semantics: Updates
// counts observations over the state's lifetime and never resets, while
// sinceRebase counts rank-1 updates absorbed by the current inverse and
// is zeroed by every rebase — Forget's and the cadence's.
func TestSinceRebaseCounter(t *testing.T) {
	const dim = 4
	rs := NewRidgeState(dim, 0.25)
	x := SparseVector{Dim: dim, Idx: []int{0}, Val: []float64{1}}
	observe := func(n int) {
		for i := 0; i < n; i++ {
			rs.ObserveSparse(x, 1)
		}
	}

	observe(3)
	if rs.Updates() != 3 || rs.sinceRebase != 3 {
		t.Fatalf("after 3 observes: updates=%d sinceRebase=%d, want 3/3", rs.Updates(), rs.sinceRebase)
	}

	rs.Forget(0.5)
	if rs.Updates() != 3 {
		t.Fatalf("Forget changed Updates: %d, want 3 (observations folded in)", rs.Updates())
	}
	if rs.sinceRebase != 0 {
		t.Fatalf("Forget's internal rebase left SinceRebase=%d, want 0", rs.sinceRebase)
	}

	// The cadence runs from the Forget rebase: rebaseEvery-1 more
	// updates stay inside the window, the next one fires it.
	observe(rebaseEvery - 1)
	if rs.sinceRebase != rebaseEvery-1 {
		t.Fatalf("%d observes after Forget: sinceRebase=%d", rebaseEvery-1, rs.sinceRebase)
	}
	observe(1)
	if rs.sinceRebase != 0 {
		t.Fatalf("cadence rebase did not fire: sinceRebase=%d, want 0", rs.sinceRebase)
	}
	if want := 3 + rebaseEvery; rs.Updates() != want {
		t.Fatalf("updates=%d, want %d", rs.Updates(), want)
	}

}
