package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// randomRidgeWorkload drives both cores through an identical randomized
// Observe/Forget sequence: dense and sparse observations interleaved,
// with a partial Forget every forgetEvery steps (0 disables).
func randomRidgeWorkload(t *testing.T, dim, steps, forgetEvery int, seed int64) (*RidgeState, *CholState) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sm := NewRidgeState(dim, 0.25)
	chol := NewCholState(dim, 0.25)
	for s := 0; s < steps; s++ {
		x := NewVector(dim)
		for k := 0; k < dim/6+1; k++ {
			x[rng.Intn(dim)] = rng.NormFloat64()
		}
		r := rng.NormFloat64() * 10
		if s%2 == 0 {
			sm.Observe(x, r)
			chol.Observe(x, r)
		} else {
			sx := SparseFromDense(x)
			sm.ObserveSparse(sx, r)
			chol.ObserveSparse(sx, r)
		}
		if forgetEvery > 0 && s > 0 && s%forgetEvery == 0 {
			gamma := 0.3 + 0.4*rng.Float64()
			sm.Forget(gamma)
			chol.Forget(gamma)
		}
	}
	return sm, chol
}

// TestCholAgreesWithShermanMorrison is the cross-backend property test:
// on randomized workloads the factored core must reproduce the
// explicit-inverse core's theta, widths, and scatter matrix to within
// tight floating-point agreement (the two compute the same quantities
// by different factorisations, so bit-identity is not expected — 1e-8
// relative is).
func TestCholAgreesWithShermanMorrison(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, tc := range []struct{ dim, steps, forgetEvery int }{
		{8, 40, 0},
		{24, 120, 25},
		{48, 300, 60},
	} {
		sm, chol := randomRidgeWorkload(t, tc.dim, tc.steps, tc.forgetEvery, int64(tc.dim))

		thetaSM, thetaChol := sm.ThetaCached(), chol.ThetaCached()
		scale := 1 + thetaSM.MaxAbs()
		for i := range thetaSM {
			if d := math.Abs(thetaSM[i] - thetaChol[i]); d > 1e-8*scale {
				t.Fatalf("dim=%d: theta[%d] diverged: sm=%g chol=%g", tc.dim, i, thetaSM[i], thetaChol[i])
			}
		}

		if d := sm.V.MaxAbsDiff(chol.Scatter()); d > 1e-8*(1+sm.V.MaxAbsDiff(NewMatrix(tc.dim, tc.dim))) {
			t.Fatalf("dim=%d: scatter matrices diverged by %g", tc.dim, d)
		}

		for probe := 0; probe < 20; probe++ {
			x := NewVector(tc.dim)
			for k := 0; k < tc.dim/5+1; k++ {
				x[rng.Intn(tc.dim)] = rng.NormFloat64()
			}
			wSM, wChol := sm.ConfidenceWidth(x), chol.ConfidenceWidth(x)
			if math.Abs(wSM-wChol) > 1e-8*(1+wSM) {
				t.Fatalf("dim=%d probe %d: width diverged: sm=%g chol=%g", tc.dim, probe, wSM, wChol)
			}
			sx := SparseFromDense(x)
			if w := chol.ConfidenceWidthSparse(sx); math.Abs(w-wChol) > 1e-12*(1+wChol) {
				t.Fatalf("dim=%d probe %d: chol sparse width %g vs dense %g", tc.dim, probe, w, wChol)
			}
		}
	}
}

// TestRidgeCoreBatchMatchesSingleCalls pins the batched scoring API to
// the per-arm kernels bit for bit on both backends: batching is an
// optimisation, never a numeric change. The batch mixes in all-zero
// contexts, a second pass must read no stale scratch, and a mismatched
// output length must panic.
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
	for _, backend := range RidgeBackends() {
		core, err := NewRidgeCore(backend, dim, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			core.ObserveSparse(contexts[i], rng.NormFloat64())
		}
		widths := make([]float64, len(contexts))
		core.ConfidenceWidthBatch(contexts, widths)
		quads := make([]float64, len(contexts))
		core.QuadraticFormBatch(contexts, quads)
		for i, x := range contexts {
			if w := core.ConfidenceWidthSparse(x); w != widths[i] {
				t.Fatalf("%s: batch width[%d]=%v, single=%v", backend, i, widths[i], w)
			}
			if w := widthFromQuad(quads[i]); w != widths[i] {
				t.Fatalf("%s: quad[%d] inconsistent with width", backend, i)
			}
		}
		again := make([]float64, len(contexts))
		core.ConfidenceWidthBatch(contexts, again)
		for i := range widths {
			if again[i] != widths[i] {
				t.Fatalf("%s: second batch pass changed width[%d]: %v then %v", backend, i, widths[i], again[i])
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: batch length mismatch did not panic", backend)
				}
			}()
			core.QuadraticFormBatch(contexts, make([]float64, 2))
		}()
	}
}

// TestCholSparseObserveMatchesDense: the sparse observe path must be
// bit-identical to the dense one on the same logical vector (the same
// contract the Sherman–Morrison backend pins in sparse_test.go).
func TestCholSparseObserveMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const dim = 24
	dense := NewCholState(dim, 0.25)
	sparse := NewCholState(dim, 0.25)
	for s := 0; s < 60; s++ {
		x := NewVector(dim)
		for k := 0; k < 4; k++ {
			x[rng.Intn(dim)] = rng.NormFloat64()
		}
		r := rng.NormFloat64()
		dense.Observe(x, r)
		sparse.ObserveSparse(SparseFromDense(x), r)
	}
	if d := dense.L.MaxAbsDiff(sparse.L); d != 0 {
		t.Fatalf("sparse observe drifted off the dense factor by %g", d)
	}
	td, ts := dense.Theta(), sparse.Theta()
	for i := range td {
		if td[i] != ts[i] {
			t.Fatalf("theta[%d]: dense %v sparse %v", i, td[i], ts[i])
		}
	}
}

// TestCholDenseWidthDoesNotCorruptSparseScratch pins the scratch
// discipline: a dense ConfidenceWidth call must leave the sparse paths'
// zero-initialised scatter buffer untouched, so a following sparse
// width over a DIFFERENT support reads no stale entries.
func TestCholDenseWidthDoesNotCorruptSparseScratch(t *testing.T) {
	const dim = 10
	cs := NewCholState(dim, 0.25)
	obs := NewVector(dim)
	obs[2], obs[7] = 1.5, -0.5
	cs.Observe(obs, 3)

	y := SparseVector{Dim: dim, Idx: []int{1, 6}, Val: []float64{2, -1}}
	before := cs.ConfidenceWidthSparse(y)

	dense := NewVector(dim)
	for i := range dense {
		dense[i] = float64(i + 1)
	}
	cs.ConfidenceWidth(dense)

	if after := cs.ConfidenceWidthSparse(y); after != before {
		t.Fatalf("dense width corrupted the sparse scratch: %v then %v", before, after)
	}
	q := make([]float64, 1)
	cs.QuadraticFormBatch([]SparseVector{y}, q)
	if w := widthFromQuad(q[0]); w != before {
		t.Fatalf("dense width corrupted the batch path: %v then %v", before, w)
	}
}

// TestRidgeCoresStayPositiveDefinite is the numerical-hygiene property
// test: through long randomized Observe/Forget sequences, both backends
// must keep V symmetric positive definite — the Sherman–Morrison V must
// stay exactly symmetric and factorisable, the Cholesky factor's
// diagonal strictly positive, and no width may come out NaN.
func TestRidgeCoresStayPositiveDefinite(t *testing.T) {
	const dim = 20
	sm, chol := randomRidgeWorkload(t, dim, 500, 40, 3)

	for i := 0; i < dim; i++ {
		for j := i + 1; j < dim; j++ {
			if sm.V.At(i, j) != sm.V.At(j, i) {
				t.Fatalf("sm V asymmetric at (%d,%d): %v vs %v", i, j, sm.V.At(i, j), sm.V.At(j, i))
			}
		}
	}
	if _, err := sm.V.Cholesky(); err != nil {
		t.Fatalf("sm V lost positive definiteness: %v", err)
	}
	for i := 0; i < dim; i++ {
		if d := chol.L.At(i, i); d <= 0 {
			t.Fatalf("chol factor diagonal %d not positive: %v", i, d)
		}
	}
	if _, err := chol.Scatter().Cholesky(); err != nil {
		t.Fatalf("chol V lost positive definiteness: %v", err)
	}

	rng := rand.New(rand.NewSource(4))
	for probe := 0; probe < 10; probe++ {
		x := NewVector(dim)
		x[rng.Intn(dim)] = rng.NormFloat64()
		if w := sm.ConfidenceWidth(x); math.IsNaN(w) || w < 0 {
			t.Fatalf("sm width NaN/negative: %v", w)
		}
		if w := chol.ConfidenceWidth(x); math.IsNaN(w) || w < 0 {
			t.Fatalf("chol width NaN/negative: %v", w)
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
	rs.DriftThreshold = -1 // adaptive rebase off: keep the drifted inverse
	rs.RebaseEvery = 1 << 30
	x := NewVector(dim)
	x[0] = 1e8
	for i := 0; i < 200; i++ {
		rs.Observe(x, 1)
	}
	if w := rs.ConfidenceWidth(x); math.IsNaN(w) || w < 0 {
		t.Fatalf("near-singular width: %v", w)
	}

	// Adversarial corruption: a drifted inverse whose quadratic form for
	// e_0 is a tiny negative number. sqrt would return NaN; the clamp
	// must return exactly 0.
	rs.VInv.Set(0, 0, -1e-18)
	probe := NewVector(dim)
	probe[0] = 1
	if w := rs.ConfidenceWidth(probe); w != 0 {
		t.Fatalf("clamped width = %v, want exactly 0", w)
	}
	if w := rs.ConfidenceWidthSparse(SparseFromDense(probe)); w != 0 {
		t.Fatalf("clamped sparse width = %v, want exactly 0", w)
	}
	if got := widthFromQuad(-1e-300); got != 0 {
		t.Fatalf("widthFromQuad(-1e-300) = %v, want 0", got)
	}
}

// TestThetaMemoisation pins the Sherman–Morrison theta cache: repeated
// calls between observations return the identical cached vector without
// recomputation, and any state change (Observe, ObserveSparse, Forget)
// invalidates it.
func TestThetaMemoisation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const dim = 12
	rs := NewRidgeState(dim, 0.25)
	x := NewVector(dim)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	rs.Observe(x, 3)

	t1 := rs.ThetaCached()
	t2 := rs.ThetaCached()
	if &t1[0] != &t2[0] {
		t.Fatal("repeated ThetaCached calls recomputed instead of returning the cache")
	}
	if want := rs.VInv.MulVec(rs.B); !t1.Equal(want, 0) {
		t.Fatalf("cached theta %v != V^{-1} b %v", t1, want)
	}

	// An observation must invalidate the cache: theta changes, and the
	// cache serves the new value.
	y := NewVector(dim)
	y[3] = 2
	rs.Observe(y, -5)
	t3 := rs.ThetaCached()
	if t3.Equal(t1, 0) {
		t.Fatal("theta unchanged after observation — stale cache served")
	}
	if want := rs.VInv.MulVec(rs.B); !t3.Equal(want, 0) {
		t.Fatalf("post-observe theta %v != V^{-1} b %v", t3, want)
	}

	rs.ObserveSparse(SparseFromDense(y), 2)
	if rs.ThetaCached().Equal(t3, 0) {
		t.Fatal("theta unchanged after sparse observation — stale cache served")
	}

	before := rs.ThetaCached().Clone()
	rs.Forget(0.9)
	if rs.ThetaCached().Equal(before, 0) {
		t.Fatal("theta unchanged after Forget — stale cache served")
	}

	// The Cholesky backend honours the same contract.
	cs := NewCholState(dim, 0.25)
	cs.Observe(x, 3)
	c1 := cs.ThetaCached()
	if c2 := cs.ThetaCached(); &c1[0] != &c2[0] {
		t.Fatal("chol ThetaCached recomputed between observations")
	}
	cs.Observe(y, -5)
	if cs.ThetaCached().Equal(c1, 0) {
		t.Fatal("chol theta unchanged after observation — stale cache served")
	}
}

// TestSinceRebaseCounter pins the separated counter semantics: Updates
// counts observations over the state's lifetime and never resets, while
// SinceRebase counts rank-1 updates absorbed by the current inverse and
// is zeroed by every rebase — including the one inside Forget, which
// previously left the fixed cadence phase-locked to the lifetime count.
func TestSinceRebaseCounter(t *testing.T) {
	const dim = 4
	rs := NewRidgeState(dim, 0.25)
	rs.RebaseEvery = 4
	rs.DriftThreshold = -1 // fixed cadence only
	x := NewVector(dim)
	x[0] = 1

	observe := func(n int) {
		for i := 0; i < n; i++ {
			rs.Observe(x, 1)
		}
	}

	observe(3)
	if rs.Updates() != 3 || rs.SinceRebase() != 3 {
		t.Fatalf("after 3 observes: updates=%d sinceRebase=%d, want 3/3", rs.Updates(), rs.SinceRebase())
	}

	rs.Forget(0.5)
	if rs.Updates() != 3 {
		t.Fatalf("Forget changed Updates: %d, want 3 (observations folded in)", rs.Updates())
	}
	if rs.SinceRebase() != 0 {
		t.Fatalf("Forget's internal rebase left SinceRebase=%d, want 0", rs.SinceRebase())
	}

	// The fixed cadence now runs from the Forget rebase: three more
	// updates stay under the every=4 window (the old updates%4 semantics
	// would have rebased at lifetime update 4), the fourth fires it.
	observe(3)
	if rs.SinceRebase() != 3 {
		t.Fatalf("3 observes after Forget: sinceRebase=%d, want 3", rs.SinceRebase())
	}
	observe(1)
	if rs.SinceRebase() != 0 {
		t.Fatalf("cadence rebase did not fire: sinceRebase=%d, want 0", rs.SinceRebase())
	}
	if rs.Updates() != 7 {
		t.Fatalf("updates=%d, want 7", rs.Updates())
	}

	// A drift-triggered rebase resets the cadence window too.
	rs2 := NewRidgeState(dim, 0.25)
	rs2.RebaseEvery = 1 << 30
	rs2.DriftThreshold = 1e-9 // first update trips it
	rs2.Observe(x, 1)
	if rs2.SinceRebase() != 0 {
		t.Fatalf("drift rebase left sinceRebase=%d, want 0", rs2.SinceRebase())
	}
	if rs2.Updates() != 1 {
		t.Fatalf("drift rebase changed updates=%d, want 1", rs2.Updates())
	}
}

// TestNewRidgeCoreBackends pins the registry surface: both names (and
// the empty default) construct, anything else errors.
func TestNewRidgeCoreBackends(t *testing.T) {
	if _, err := NewRidgeCore("", 4, 0.25); err != nil {
		t.Fatal(err)
	}
	for _, name := range RidgeBackends() {
		core, err := NewRidgeCore(name, 4, 0.25)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if core.Dimension() != 4 {
			t.Fatalf("%s: dimension %d", name, core.Dimension())
		}
		if !ValidRidgeBackend(name) {
			t.Fatalf("%s not valid?", name)
		}
	}
	if _, err := NewRidgeCore("qr", 4, 0.25); err == nil {
		t.Fatal("unknown backend constructed")
	}
	if ValidRidgeBackend("qr") {
		t.Fatal("unknown backend validated")
	}
}

// TestCholForgetBounds pins the factored Forget edge cases: gamma <= 0
// is a no-op, gamma >= 1 resets to the prior exactly.
func TestCholForgetBounds(t *testing.T) {
	const dim = 6
	cs := NewCholState(dim, 0.25)
	x := NewVector(dim)
	x[1], x[4] = 2, -1
	cs.Observe(x, 7)

	before := cs.L.Clone()
	cs.Forget(0)
	if cs.L.MaxAbsDiff(before) != 0 {
		t.Fatal("Forget(0) changed the factor")
	}

	cs.Forget(1.5)
	want := Identity(dim, math.Sqrt(0.25))
	if cs.L.MaxAbsDiff(want) != 0 {
		t.Fatal("Forget(>=1) did not reset the factor to sqrt(lambda)*I")
	}
	if cs.B.MaxAbs() != 0 {
		t.Fatal("Forget(>=1) did not clear b")
	}
	if cs.ThetaCached().MaxAbs() != 0 {
		t.Fatal("theta after full forget not zero")
	}
}
