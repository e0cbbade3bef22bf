package linalg

import (
	"fmt"
	"math"
)

// RidgeState is the C2UCB ridge regression: the scatter matrix
// V_t = lambda*I + sum x x', its inverse (kept incrementally via
// Sherman–Morrison), and the response accumulator b_t = sum r*x. The
// coefficient estimate is theta_t = V_t^{-1} b_t.
//
// Sherman–Morrison accumulates floating-point error over many rank-1
// updates, so the inverse is recomputed from V every rebaseEvery rank-1
// updates (a rebase), and by every Forget.
//
// Over 10⁵ sparse observations at the TPC-DS context dimension the
// maintained theta and widths stay within ~1e-15 relative error of a
// fresh inverse of V, with or without periodic Forget
// (TestRidgeDriftBoundedAgainstFreshInverse).
//
// A state is NOT safe for concurrent use: callers sharing a state
// across goroutines must serialise its updates (ObserveSparse, Forget)
// against every other call on it.
type RidgeState struct {
	Dim    int
	V      *Matrix // scatter matrix, always exact (up to fp addition)
	VInv   *Matrix // incrementally maintained inverse of V
	B      Vector  // response accumulator
	Lambda float64

	updates     int // observations folded in over the state's lifetime
	sinceRebase int // rank-1 updates applied since the last rebase
}

// rebaseEvery is the rebase cadence in rank-1 updates. Every committed
// golden was captured under this value.
const rebaseEvery = 256

// NewRidgeState initialises V = lambda*I, VInv = I/lambda, b = 0.
func NewRidgeState(dim int, lambda float64) *RidgeState {
	if dim <= 0 {
		panic(fmt.Sprintf("linalg: ridge dimension must be positive, got %d", dim))
	}
	if lambda <= 0 {
		panic(fmt.Sprintf("linalg: ridge lambda must be positive, got %g", lambda))
	}
	return &RidgeState{
		Dim:    dim,
		V:      Identity(dim, lambda),
		VInv:   Identity(dim, 1/lambda),
		B:      NewVector(dim),
		Lambda: lambda,
	}
}

// Theta returns the current coefficient estimate V^{-1} b using the
// maintained inverse, as a new vector the caller owns. The tuner asks
// once per round, between two updates, so nothing is memoised.
func (rs *RidgeState) Theta() Vector { return rs.VInv.MulVec(rs.B) }

// ConfidenceWidthBatch computes sqrt(x' V^{-1} x), the exploration-boost
// term of the UCB score, for every context into out (len(out) must equal
// len(xs)) in one pass over the maintained inverse, through the O(nnz²)
// sparse quadratic form.
func (rs *RidgeState) ConfidenceWidthBatch(xs []SparseVector, out []float64) {
	if len(xs) != len(out) {
		panic(fmt.Sprintf("linalg: batch length mismatch %d contexts, %d outputs", len(xs), len(out)))
	}
	for i, x := range xs {
		out[i] = widthFromQuad(rs.VInv.QuadraticFormSparse(x))
	}
}

func widthFromQuad(q float64) float64 {
	if q < 0 {
		// Numerical noise can push a tiny positive quadratic form below
		// zero; clamp rather than produce NaN from sqrt.
		q = 0
	}
	return math.Sqrt(q)
}

// ObserveSparse folds one (context, reward) observation into the state:
// V += x x', b += r x, and VInv is updated by Sherman–Morrison:
//
//	(V + x x')^{-1} = V^{-1} - (V^{-1} x x' V^{-1}) / (1 + x' V^{-1} x)
//
// The V and b accumulations touch only nnz²/nnz entries and the
// Sherman–Morrison vector u = V^{-1}x costs O(d·nnz) instead of O(d²).
// The VInv outer update stays dense (u is dense).
func (rs *RidgeState) ObserveSparse(x SparseVector, reward float64) {
	if x.Dim != rs.Dim {
		panic(fmt.Sprintf("linalg: ridge observe dimension %d, want %d", x.Dim, rs.Dim))
	}
	rs.V.AddOuterScaledSparse(1, x)
	rs.B.AddScaledSparse(reward, x)

	u := rs.VInv.MulVecSparse(x)
	denom := 1 + u.DotSparse(x)
	rs.VInv.AddOuterScaled(-1/denom, u)
	rs.afterRank1()
}

// afterRank1 advances the update counters and rebases once the current
// inverse has absorbed rebaseEvery rank-1 updates. sinceRebase is reset
// by every rebase, including Forget's; updates counts observations over
// the state's lifetime and never resets.
func (rs *RidgeState) afterRank1() {
	rs.updates++
	rs.sinceRebase++
	if rs.sinceRebase >= rebaseEvery {
		rs.rebase()
	}
}

// Forget discounts accumulated knowledge toward the prior by factor
// gamma in [0, 1]: 0 keeps everything, 1 resets to lambda*I / 0. The MAB
// uses this to adapt to workload shifts (Section IV, "the learner can
// forget learned knowledge depending on the workload shift intensity").
//
// V itself is updated exactly and the inverse is recomputed from it
// (a rebase, O(d³)).
func (rs *RidgeState) Forget(gamma float64) {
	if gamma <= 0 {
		return
	}
	if gamma > 1 {
		gamma = 1
	}
	keep := 1 - gamma
	// V <- keep*V + gamma*lambda*I, scaling the backing slice directly
	// (the bounds-checked At/Set element loop dominated Forget's cost at
	// C2UCB context dimensions).
	for i := range rs.V.Data {
		rs.V.Data[i] *= keep
	}
	n := rs.Dim
	add := gamma * rs.Lambda
	for i := 0; i < n; i++ {
		rs.V.Data[i*n+i] += add
	}
	rs.B.Scale(keep)
	rs.rebase()
}

// rebase recomputes VInv from V exactly, discarding the accumulated
// Sherman–Morrison error, and restarts the cadence count.
func (rs *RidgeState) rebase() {
	rs.sinceRebase = 0
	rs.V.SymmetrizeInPlace()
	inv, err := rs.V.Inverse()
	if err != nil {
		// V = lambda*I + PSD is positive definite by construction; failure
		// here indicates severe numeric corruption. Reset to the prior
		// rather than continue with garbage.
		rs.V = Identity(rs.Dim, rs.Lambda)
		rs.VInv = Identity(rs.Dim, 1/rs.Lambda)
		rs.B = NewVector(rs.Dim)
		return
	}
	rs.VInv = inv
}

// Updates reports how many observations have been folded in over the
// state's lifetime. Forget and rebase do not reset it.
func (rs *RidgeState) Updates() int { return rs.updates }
