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
// through the O(nnz²) sparse ridge kernels (bit-identical to the dense
// path — see internal/linalg).
//
// The ridge regression itself is pluggable (linalg.RidgeCore): the
// default Sherman–Morrison explicit-inverse backend, or the factored
// Cholesky backend that maintains no inverse at all. Scoring goes
// through the backend's memoised theta and batched width kernels, so
// theta is derived at most once per state change and the per-arm work
// is one dot product plus one batched quadratic form.
type C2UCB struct {
	state   linalg.RidgeCore
	backend string // resolved ridge-backend name the bandit runs on
	// Alpha returns the exploration-boost factor for round t (1-based).
	Alpha func(t int) float64
	round int

	// rewardScale tracks the magnitude of observed rewards so the
	// exploration boost stays commensurate with the reward units
	// (simulated seconds here, where queries range from milliseconds to
	// hundreds of seconds).
	rewardScale float64

	// forgetRank mirrors the SM backend's low-rank Forget budget so a
	// snapshot restore (which rebuilds the backend) can re-apply it.
	forgetRank int
}

// DefaultAlpha is the exploration schedule used by the experiments: a
// slowly growing sqrt-log factor as in the C2UCB analysis.
func DefaultAlpha(t int) float64 {
	return 0.45 * math.Sqrt(math.Log(float64(t)+2))
}

// NewC2UCB creates the bandit with context dimension dim and ridge
// regularisation lambda on the default (Sherman–Morrison) backend. A
// nil alpha uses DefaultAlpha.
func NewC2UCB(dim int, lambda float64, alpha func(int) float64) *C2UCB {
	b, err := NewC2UCBBackend(linalg.BackendSM, dim, lambda, alpha)
	if err != nil {
		panic(err) // unreachable: the default backend always constructs
	}
	return b
}

// NewC2UCBBackend creates the bandit on the named ridge backend ("" or
// linalg.BackendSM for Sherman–Morrison, linalg.BackendChol for the
// factored Cholesky core). A nil alpha uses DefaultAlpha.
func NewC2UCBBackend(backend string, dim int, lambda float64, alpha func(int) float64) (*C2UCB, error) {
	core, err := linalg.NewRidgeCore(backend, dim, lambda)
	if err != nil {
		return nil, err
	}
	if backend == "" {
		backend = linalg.BackendSM
	}
	if alpha == nil {
		alpha = DefaultAlpha
	}
	return &C2UCB{
		state:       core,
		backend:     backend,
		Alpha:       alpha,
		rewardScale: 1,
	}, nil
}

// SetRebaseSchedule overrides the Sherman–Morrison backend's
// inverse-maintenance schedule: every is the fixed fallback cadence (0
// keeps the default), driftThreshold the adaptive rank-1 drift trigger
// (0 keeps the default, negative disables the adaptive schedule). See
// linalg.RidgeState. The factored backend maintains no inverse, so it
// has no schedule and the call is a no-op.
func (b *C2UCB) SetRebaseSchedule(every int, driftThreshold float64) {
	if rs, ok := b.state.(*linalg.RidgeState); ok {
		rs.RebaseEvery = every
		rs.DriftThreshold = driftThreshold
	}
}

// SetForgetRank budgets the Sherman–Morrison backend's low-rank Forget
// correction (see linalg.RidgeState.ForgetRank); 0 keeps the exact
// Forget-triggered rebase. The factored backend forgets on the factor
// directly and has no rebase to replace, so there the call only records
// the setting.
func (b *C2UCB) SetForgetRank(k int) {
	b.forgetRank = k
	if rs, ok := b.state.(*linalg.RidgeState); ok {
		rs.ForgetRank = k
	}
}

// BeginRound advances the round counter (Algorithm 1, line 3).
func (b *C2UCB) BeginRound() { b.round++ }

// Round returns the current 1-based round.
func (b *C2UCB) Round() int { return b.round }

// Scores computes the UCB score for every context (Algorithm 1, line 8):
//
//	r_hat(i) = theta' x(i) + alpha_t * sqrt(x(i)' V^{-1} x(i))
//
// The widths for the whole candidate batch are computed in one blocked
// pass over the backend state and theta comes from the backend's memo,
// so no per-arm call re-derives either; each entry is bit-identical to
// the historical per-arm theta.DotSparse + ConfidenceWidthSparse form.
func (b *C2UCB) Scores(contexts []linalg.SparseVector) []float64 {
	out := make([]float64, len(contexts))
	b.ScoresInto(contexts, out)
	return out
}

// ScoresInto is Scores into a caller-supplied slice (len(out) must equal
// len(contexts)) — the tuner's round loop reuses one scores buffer across
// rounds. Results are byte-identical to Scores.
func (b *C2UCB) ScoresInto(contexts []linalg.SparseVector, out []float64) {
	theta := b.state.ThetaCached()
	alpha := b.Alpha(b.round) * b.rewardScale
	b.state.ConfidenceWidthBatch(contexts, out)
	for i, x := range contexts {
		out[i] = theta.DotSparse(x) + alpha*out[i]
	}
}

// ExpectedScores returns the exploitation-only point estimates theta'x,
// used by tests and diagnostics.
func (b *C2UCB) ExpectedScores(contexts []linalg.SparseVector) []float64 {
	theta := b.state.ThetaCached()
	out := make([]float64, len(contexts))
	for i, x := range contexts {
		out[i] = theta.DotSparse(x)
	}
	return out
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

// Theta exposes the current coefficient estimate (diagnostics/tests).
// The vector is owned by the ridge backend; callers must not mutate it.
func (b *C2UCB) Theta() linalg.Vector { return b.state.Theta() }

// Dim returns the context dimensionality.
func (b *C2UCB) Dim() int { return b.state.Dimension() }

// Backend names the ridge backend the bandit runs on (the resolved
// name passed to NewC2UCBBackend).
func (b *C2UCB) Backend() string { return b.backend }
