package mab

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dbabandits/internal/linalg"
)

// The paper's safety guarantee rests on C2UCB's O~(sqrt(T)) alpha-regret
// (Section III, corrected analysis of Oetomo et al.): the per-round
// average regret approaches zero. These tests check the empirical
// behaviour on synthetic linear-reward bandits where the optimal policy
// is computable exactly.

// syntheticBandit draws k arms with fixed contexts and a hidden theta;
// rewards are theta'x + noise. The super arm picks m arms per round.
type syntheticBandit struct {
	rng      *rand.Rand
	theta    linalg.Vector
	contexts []linalg.SparseVector
	m        int
	noise    float64
}

func newSyntheticBandit(seed int64, dim, k, m int, noise float64) *syntheticBandit {
	rng := rand.New(rand.NewSource(seed))
	theta := linalg.NewVector(dim)
	for i := range theta {
		theta[i] = rng.NormFloat64()
	}
	ctxs := make([]linalg.SparseVector, k)
	for a := range ctxs {
		x := linalg.NewVector(dim)
		for i := range x {
			x[i] = rng.Float64()
		}
		ctxs[a] = linalg.SparseFromDense(x)
	}
	return &syntheticBandit{rng: rng, theta: theta, contexts: ctxs, m: m, noise: noise}
}

// optimalReward is the expected reward of the best m arms.
func (sb *syntheticBandit) optimalReward() float64 {
	vals := make([]float64, len(sb.contexts))
	for i, x := range sb.contexts {
		vals[i] = sb.theta.DotSparse(x)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	var s float64
	for i := 0; i < sb.m; i++ {
		s += vals[i]
	}
	return s
}

// play runs T rounds of C2UCB with a top-m oracle and returns the
// cumulative regret trajectory.
func (sb *syntheticBandit) play(T int) []float64 {
	bandit := NewC2UCB(len(sb.theta), 0.25)
	opt := sb.optimalReward()
	regret := make([]float64, T)
	var cum float64
	for t := 0; t < T; t++ {
		bandit.BeginRound()
		scores := ucbScores(bandit, sb.contexts)
		// top-m oracle
		type sc struct {
			i int
			v float64
		}
		order := make([]sc, len(scores))
		for i, v := range scores {
			order[i] = sc{i, v}
		}
		sort.Slice(order, func(a, b int) bool { return order[a].v > order[b].v })
		var ctxs []linalg.SparseVector
		var rewards []float64
		var expected float64
		for j := 0; j < sb.m; j++ {
			i := order[j].i
			x := sb.contexts[i]
			mean := sb.theta.DotSparse(x)
			expected += mean
			ctxs = append(ctxs, x)
			rewards = append(rewards, mean+sb.rng.NormFloat64()*sb.noise)
		}
		bandit.Update(ctxs, rewards)
		cum += opt - expected
		regret[t] = cum
	}
	return regret
}

func TestRegretPerRoundAverageVanishes(t *testing.T) {
	sb := newSyntheticBandit(1, 6, 40, 3, 0.1)
	reg := sb.play(400)
	early := reg[49] / 50
	late := (reg[399] - reg[199]) / 200
	if late > early*0.5 && late > 0.05 {
		t.Fatalf("per-round regret not vanishing: early %v, late %v", early, late)
	}
}

func TestRegretSublinearGrowth(t *testing.T) {
	sb := newSyntheticBandit(2, 5, 30, 2, 0.1)
	reg := sb.play(800)
	// Cumulative regret at 4T should be well below 4x the regret at T if
	// growth is ~sqrt (allow 2.6x; exact sqrt predicts 2x).
	r200, r800 := math.Max(reg[199], 1e-9), reg[799]
	if r800 > 2.6*r200 && r800 > 1 {
		t.Fatalf("regret growth looks linear: R(200)=%v R(800)=%v", r200, r800)
	}
}

func TestRegretConvergesToOptimalSuperArm(t *testing.T) {
	sb := newSyntheticBandit(3, 4, 20, 2, 0.05)
	bandit := NewC2UCB(len(sb.theta), 0.25)
	// After enough rounds the greedy selection matches the true top-m.
	for t1 := 0; t1 < 300; t1++ {
		bandit.BeginRound()
		scores := ucbScores(bandit, sb.contexts)
		best := topM(scores, sb.m)
		var ctxs []linalg.SparseVector
		var rewards []float64
		for _, i := range best {
			x := sb.contexts[i]
			ctxs = append(ctxs, x)
			rewards = append(rewards, sb.theta.DotSparse(x)+sb.rng.NormFloat64()*sb.noise)
		}
		bandit.Update(ctxs, rewards)
	}
	truth := make([]float64, len(sb.contexts))
	for i, x := range sb.contexts {
		truth[i] = sb.theta.DotSparse(x)
	}
	wantSet := map[int]bool{}
	for _, i := range topM(truth, sb.m) {
		wantSet[i] = true
	}
	bandit.BeginRound()
	got := topM(pointEstimates(bandit, sb.contexts), sb.m)
	matches := 0
	for _, i := range got {
		if wantSet[i] {
			matches++
		}
	}
	if matches < sb.m-1 {
		t.Fatalf("converged selection matches only %d of %d optimal arms", matches, sb.m)
	}
}

// TestRegretRobustToAdversarialStart plants a misleading prior: the worst
// arm pays out hugely for the first rounds, then reverts to its true
// mean. The UCB must recover (the paper: "the bandit is nonetheless
// resilient as it can quickly recover from any such performance
// regressions").
func TestRegretRobustToAdversarialStart(t *testing.T) {
	sb := newSyntheticBandit(4, 4, 10, 1, 0.05)
	bandit := NewC2UCB(len(sb.theta), 0.25)
	truth := make([]float64, len(sb.contexts))
	for i, x := range sb.contexts {
		truth[i] = sb.theta.DotSparse(x)
	}
	worst := topM(negate(truth), 1)[0]
	bestTrue := topM(truth, 1)[0]

	for t1 := 0; t1 < 250; t1++ {
		bandit.BeginRound()
		pick := topM(ucbScores(bandit, sb.contexts), 1)[0]
		x := sb.contexts[pick]
		mean := sb.theta.DotSparse(x)
		if pick == worst && t1 < 10 {
			mean = 10 // adversarial honeymoon
		}
		bandit.Update([]linalg.SparseVector{x}, []float64{mean + sb.rng.NormFloat64()*sb.noise})
	}
	bandit.BeginRound()
	final := topM(pointEstimates(bandit, sb.contexts), 1)[0]
	if final == worst {
		t.Fatal("bandit stuck on the adversarially boosted worst arm")
	}
	if final != bestTrue {
		// Allow near-optimal alternatives but not the planted trap.
		if truth[final] < truth[bestTrue]-0.5 {
			t.Fatalf("bandit converged to clearly sub-optimal arm %d (%v vs best %v)", final, truth[final], truth[bestTrue])
		}
	}
}

func topM(vals []float64, m int) []int {
	type sc struct {
		i int
		v float64
	}
	order := make([]sc, len(vals))
	for i, v := range vals {
		order[i] = sc{i, v}
	}
	sort.Slice(order, func(a, b int) bool { return order[a].v > order[b].v })
	out := make([]int, m)
	for j := 0; j < m; j++ {
		out[j] = order[j].i
	}
	return out
}

func negate(vals []float64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = -v
	}
	return out
}
