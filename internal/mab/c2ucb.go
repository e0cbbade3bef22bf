package mab

import (
	"math"

	"dbabandits/internal/linalg"
)

// C2UCB is the contextual combinatorial UCB bandit (Qin, Chen & Zhu,
// SDM'14) with the corrected regret analysis of Oetomo et al. It keeps
// one ridge regression shared across all arms: all learned knowledge
// lives in theta, so newly generated arms are scored without ever having
// been played — the property that makes workload-driven dynamic arms
// viable (Section III).
//
// Contexts are sparse: an index's context has at most one non-zero per
// key column plus three derived components, so scoring and updating route
// through the O(nnz²) sparse ridge kernels (see internal/linalg).
//
// Scoring derives theta once per call and goes through the ridge state's
// batched width kernel, so the per-arm work is one dot product plus one
// batched quadratic form.
type C2UCB struct {
	state *linalg.RidgeState
	round int

	// rewardScale tracks the magnitude of observed rewards so the
	// exploration boost stays commensurate with the reward units
	// (simulated seconds here, where queries range from milliseconds to
	// hundreds of seconds).
	rewardScale float64
}

// DefaultAlpha is the exploration schedule used by the experiments: a
// slowly growing sqrt-log factor as in the C2UCB analysis.
func DefaultAlpha(t int) float64 {
	return 0.45 * math.Sqrt(math.Log(float64(t)+2))
}

// NewC2UCB creates the bandit with context dimension dim and ridge
// regularisation lambda; exploration follows DefaultAlpha.
func NewC2UCB(dim int, lambda float64) *C2UCB {
	return &C2UCB{
		state:       linalg.NewRidgeState(dim, lambda),
		rewardScale: 1,
	}
}

// BeginRound advances the round counter (Algorithm 1, line 3).
func (b *C2UCB) BeginRound() { b.round++ }

// ScoresInto computes the UCB score for every context (Algorithm 1,
// line 8) into a caller-supplied slice (len(out) must equal
// len(contexts)):
//
//	r_hat(i) = theta' x(i) + alpha_t * sqrt(x(i)' V^{-1} x(i))
//
// The widths for the whole candidate batch are computed in one pass
// over the ridge state and theta once per call, so no per-arm call
// re-derives either. The tuner's round loop reuses one scores buffer
// across rounds.
func (b *C2UCB) ScoresInto(contexts []linalg.SparseVector, out []float64) {
	theta := b.state.Theta()
	alpha := DefaultAlpha(b.round) * b.rewardScale
	b.state.ConfidenceWidthBatch(contexts, out)
	for i, x := range contexts {
		out[i] = theta.DotSparse(x) + alpha*out[i]
	}
}

// Update folds in the semi-bandit feedback for the played arms
// (Algorithm 1, lines 11-13): one (context, reward) pair per arm in the
// super arm.
func (b *C2UCB) Update(contexts []linalg.SparseVector, rewards []float64) {
	for i, x := range contexts {
		r := rewards[i]
		b.state.ObserveSparse(x, r)
		if a := math.Abs(r); a > b.rewardScale {
			// Grow quickly, decay slowly: scale tracks the largest
			// observed reward magnitude with a light decay so one early
			// outlier does not pin exploration forever.
			b.rewardScale = a
		}
	}
	b.rewardScale *= 0.995
	if b.rewardScale < 1 {
		b.rewardScale = 1
	}
}

// Forget discounts learned knowledge toward the prior by gamma in [0,1];
// the tuner calls it scaled by detected workload-shift intensity.
func (b *C2UCB) Forget(gamma float64) { b.state.Forget(gamma) }
