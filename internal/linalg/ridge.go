package linalg

import (
	"fmt"
	"math"
	"sort"
)

// RidgeState maintains the sufficient statistics of the C2UCB ridge
// regression: the scatter matrix V_t = lambda*I + sum x x', its inverse
// (kept incrementally via Sherman–Morrison), and the response accumulator
// b_t = sum r*x. The coefficient estimate is theta_t = V_t^{-1} b_t.
//
// Sherman–Morrison accumulates floating-point error over many rank-1
// updates, so the inverse is periodically re-baselined from a fresh
// Cholesky factorisation. Two schedules compose:
//
//   - a rank-1-aware adaptive schedule: each update contributes
//     q/(1+q) (q = x'V^{-1}x) to an accumulated drift score — the relative
//     weight of that update's correction to the inverse, i.e. how much of
//     VInv became one more generation of rank-1 arithmetic — and the state
//     rebases once the score crosses DriftThreshold. Heavy early updates
//     (large q against a weak prior) spend the budget quickly, the
//     converged tail (q → 0) barely at all, matching where
//     Sherman–Morrison conditioning is actually lost;
//   - the fixed every-RebaseEvery cadence as a fallback bound, so drift
//     can never accumulate unchecked even if the threshold is set high.
type RidgeState struct {
	Dim    int
	V      *Matrix // scatter matrix, always exact (up to fp addition)
	VInv   *Matrix // incrementally maintained inverse of V
	B      Vector  // response accumulator
	Lambda float64

	updates     int     // observations folded in over the state's lifetime
	sinceRebase int     // rank-1 updates applied since the last rebase
	drift       float64 // accumulated q/(1+q) since the last rebase

	// theta memoises V^{-1} b between observations; thetaValid is
	// cleared whenever V or b change (Observe/ObserveSparse/Forget) and
	// on rebase (the recomputed inverse changes theta's low-order bits).
	theta      Vector
	thetaValid bool

	RebaseEvery int // fixed fallback cadence; 0 means the default (256)
	// DriftThreshold triggers an adaptive rebase once the accumulated
	// drift score reaches it. 0 means the default (48); negative disables
	// the adaptive schedule, leaving only the fixed cadence.
	DriftThreshold float64
	// ForgetRank, when positive, replaces Forget's exact O(d³)
	// refactorisation with a structured O(k·d²) correction: the
	// discount-toward-prior perturbation is absorbed by k budgeted
	// diagonal Sherman–Morrison updates (see forgetLowRank). k >= Dim is
	// mathematically exact; smaller budgets leave the residual
	// perturbation accounted in the drift score, so the existing adaptive
	// rebase is the fallback. 0 (the default) keeps the exact rebase —
	// every committed golden was captured under it.
	ForgetRank int

	// forgetLowRank scratch, lazily allocated on first use.
	forgetU   Vector
	forgetOrd []int
}

const (
	defaultRebaseEvery    = 256
	defaultDriftThreshold = 48
)

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
// maintained inverse, memoised between observations: the dense mat-vec
// runs at most once per state change, however many scoring passes ask.
// The returned vector is owned by the state and valid until the next
// Observe/ObserveSparse/Forget; callers must not mutate it.
func (rs *RidgeState) Theta() Vector {
	if !rs.thetaValid {
		rs.theta = rs.VInv.MulVec(rs.B)
		rs.thetaValid = true
	}
	return rs.theta
}

// ThetaCached implements RidgeCore; it is Theta (already memoised).
func (rs *RidgeState) ThetaCached() Vector { return rs.Theta() }

// Dimension implements RidgeCore.
func (rs *RidgeState) Dimension() int { return rs.Dim }

// ConfidenceWidth returns sqrt(x' V^{-1} x), the exploration-boost term of
// the UCB score for context x.
func (rs *RidgeState) ConfidenceWidth(x Vector) float64 {
	return widthFromQuad(rs.VInv.QuadraticForm(x))
}

// ConfidenceWidthSparse is ConfidenceWidth through the O(nnz²) sparse
// quadratic form; bit-identical to the dense path.
func (rs *RidgeState) ConfidenceWidthSparse(x SparseVector) float64 {
	return widthFromQuad(rs.VInv.QuadraticFormSparse(x))
}

// QuadraticFormBatch computes x' V^{-1} x for every context into out in
// one pass over the maintained inverse — the per-arm kernel entry
// amortised across the whole candidate batch. Each entry is
// bit-identical to VInv.QuadraticFormSparse on the same context.
func (rs *RidgeState) QuadraticFormBatch(xs []SparseVector, out []float64) {
	if len(xs) != len(out) {
		panic(fmt.Sprintf("linalg: batch length mismatch %d contexts, %d outputs", len(xs), len(out)))
	}
	for i, x := range xs {
		out[i] = rs.VInv.QuadraticFormSparse(x)
	}
}

// ConfidenceWidthBatch computes sqrt(x' V^{-1} x) for every context into
// out; each entry is bit-identical to ConfidenceWidthSparse.
func (rs *RidgeState) ConfidenceWidthBatch(xs []SparseVector, out []float64) {
	rs.QuadraticFormBatch(xs, out)
	for i, q := range out {
		out[i] = widthFromQuad(q)
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

// Observe folds one (context, reward) observation into the state:
// V += x x', b += r x, and VInv is updated by Sherman–Morrison:
//
//	(V + x x')^{-1} = V^{-1} - (V^{-1} x x' V^{-1}) / (1 + x' V^{-1} x)
func (rs *RidgeState) Observe(x Vector, reward float64) {
	if len(x) != rs.Dim {
		panic(fmt.Sprintf("linalg: ridge observe dimension %d, want %d", len(x), rs.Dim))
	}
	rs.V.AddOuterScaled(1, x)
	rs.B.AddScaled(reward, x)

	u := rs.VInv.MulVec(x) // V^{-1} x (VInv symmetric, so also x' V^{-1})
	denom := 1 + x.Dot(u)
	rs.VInv.AddOuterScaled(-1/denom, u)
	rs.afterRank1(denom)
}

// ObserveSparse is Observe through the sparse kernels: the V and b
// accumulations touch only nnz²/nnz entries and the Sherman–Morrison
// vector u = V^{-1}x costs O(d·nnz) instead of O(d²). The VInv outer
// update stays dense (u is dense). Bit-identical to Observe on the same
// logical vector.
func (rs *RidgeState) ObserveSparse(x SparseVector, reward float64) {
	if x.Dim != rs.Dim {
		panic(fmt.Sprintf("linalg: ridge observe dimension %d, want %d", x.Dim, rs.Dim))
	}
	rs.V.AddOuterScaledSparse(1, x)
	rs.B.AddScaledSparse(reward, x)

	u := rs.VInv.MulVecSparse(x)
	denom := 1 + u.DotSparse(x)
	rs.VInv.AddOuterScaled(-1/denom, u)
	rs.afterRank1(denom)
}

// afterRank1 advances the update counters and runs whichever rebase
// schedule fires first. denom is the Sherman–Morrison denominator
// 1 + x'V^{-1}x of the update just applied.
//
// Both schedules are measured since the last rebase: sinceRebase counts
// the rank-1 updates the current inverse has absorbed (reset by every
// rebase, including Forget's), while updates counts observations over
// the state's lifetime and never resets. Before the counters were
// separated, the fixed cadence ran on updates%RebaseEvery, so a
// Forget- or drift-triggered rebase left the cadence phase-locked to
// the lifetime count — a fresh inverse could be rebased again almost
// immediately, or ride out nearly 2x the intended window.
func (rs *RidgeState) afterRank1(denom float64) {
	rs.updates++
	rs.sinceRebase++
	rs.thetaValid = false
	rs.drift += 1 - 1/denom // == q/(1+q)
	every := rs.RebaseEvery
	if every == 0 {
		every = defaultRebaseEvery
	}
	threshold := rs.DriftThreshold
	if threshold == 0 {
		threshold = defaultDriftThreshold
	}
	if rs.sinceRebase >= every || (threshold > 0 && rs.drift >= threshold) {
		rs.rebase()
	}
}

// Forget discounts accumulated knowledge toward the prior by factor
// gamma in [0, 1]: 0 keeps everything, 1 resets to lambda*I / 0. The MAB
// uses this to adapt to workload shifts (Section IV, "the learner can
// forget learned knowledge depending on the workload shift intensity").
//
// V itself is always updated exactly. The maintained inverse follows by
// either a full exact rebase (the default, O(d³)) or — when ForgetRank
// is set — the structured O(k·d²) correction of forgetLowRank.
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
	if rs.ForgetRank > 0 && keep > 0 {
		rs.forgetLowRank(gamma, keep)
		return
	}
	rs.rebase()
}

// forgetLowRank maintains the inverse through a Forget without the full
// refactorisation. The discount splits into two parts with very
// different costs:
//
//   - the uniform scale keep*V, whose inverse is exactly VInv/keep —
//     one O(d²) pass, no approximation at all;
//   - the rank-d identity top-up +gamma*lambda*I, absorbed coordinate
//     by coordinate: adding c*e_i e_i' (c = gamma*lambda) to V updates
//     the inverse by the diagonal Sherman–Morrison step
//     VInv -= (c / (1 + c*VInv[i][i])) * u u',   u = VInv e_i,
//     each O(d²).
//
// ForgetRank budgets how many of the d coordinate steps run. They are
// applied in order of correction weight q/(1+q) with q = c*VInv[i][i] —
// the same currency the Observe drift score uses, largest first, ties
// broken by index so the order is deterministic. Applied steps add
// their q/(1+q) to the drift score exactly as observations do (one more
// generation of rank-1 arithmetic on the inverse); the steps the budget
// skips add theirs too, as genuinely unabsorbed perturbation. The
// existing rebase schedule therefore remains the safety net: skip
// enough mass often enough and the adaptive threshold forces the exact
// refactorisation. With ForgetRank >= Dim every step runs and the
// result is mathematically exact (agreement-tested against the rebase
// oracle).
func (rs *RidgeState) forgetLowRank(gamma, keep float64) {
	n := rs.Dim
	inv := 1 / keep
	for i := range rs.VInv.Data {
		rs.VInv.Data[i] *= inv
	}
	c := gamma * rs.Lambda
	if rs.forgetOrd == nil {
		rs.forgetOrd = make([]int, n)
		rs.forgetU = NewVector(n)
	}
	ord := rs.forgetOrd
	for i := range ord {
		ord[i] = i
	}
	// q is monotone in VInv[i][i], so sorting on the diagonal directly
	// gives the q/(1+q) priority order.
	sort.Slice(ord, func(a, b int) bool {
		da := rs.VInv.Data[ord[a]*n+ord[a]]
		db := rs.VInv.Data[ord[b]*n+ord[b]]
		if da != db {
			return da > db
		}
		return ord[a] < ord[b]
	})
	k := rs.ForgetRank
	if k > n {
		k = n
	}
	u := rs.forgetU
	for _, i := range ord[:k] {
		vii := rs.VInv.Data[i*n+i]
		q := c * vii
		beta := c / (1 + q)
		copy(u, rs.VInv.Data[i*n:(i+1)*n]) // row i == VInv e_i (symmetric)
		for r := 0; r < n; r++ {
			ur := beta * u[r]
			if ur == 0 {
				continue
			}
			row := rs.VInv.Data[r*n : (r+1)*n]
			for j, uj := range u {
				row[j] -= ur * uj
			}
		}
		rs.drift += q / (1 + q)
		rs.sinceRebase++
	}
	for _, i := range ord[k:] {
		q := c * rs.VInv.Data[i*n+i]
		rs.drift += q / (1 + q)
	}
	rs.thetaValid = false
	every := rs.RebaseEvery
	if every == 0 {
		every = defaultRebaseEvery
	}
	threshold := rs.DriftThreshold
	if threshold == 0 {
		threshold = defaultDriftThreshold
	}
	if rs.sinceRebase >= every || (threshold > 0 && rs.drift >= threshold) {
		rs.rebase()
	}
}

// rebase recomputes VInv from V exactly, discarding Sherman–Morrison
// drift, and zeroes both since-rebase measures (the drift score and the
// update counter the fixed cadence runs on).
func (rs *RidgeState) rebase() {
	rs.drift = 0
	rs.sinceRebase = 0
	rs.thetaValid = false
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

// SinceRebase reports how many rank-1 updates the current inverse has
// absorbed since the last exact recomputation — the quantity both
// rebase schedules are measured against. Any rebase (fixed-cadence,
// drift-triggered, or Forget's) resets it to zero.
func (rs *RidgeState) SinceRebase() int { return rs.sinceRebase }

// Drift reports the accumulated drift score since the last rebase
// (diagnostics and tests).
func (rs *RidgeState) Drift() float64 { return rs.drift }
