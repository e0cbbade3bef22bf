package mab

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dbabandits/internal/linalg"
)

func TestC2UCBLearnsLinearScores(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dim := 5
	theta := linalg.Vector{2, -1, 0.5, 3, -2}
	b := NewC2UCB(dim, 0.25)
	for round := 0; round < 200; round++ {
		b.BeginRound()
		var ctxs []linalg.SparseVector
		var rewards []float64
		for k := 0; k < 3; k++ {
			x := linalg.NewVector(dim)
			for i := range x {
				x[i] = rng.Float64()
			}
			sx := linalg.SparseFromDense(x)
			ctxs = append(ctxs, sx)
			rewards = append(rewards, theta.DotSparse(sx)+rng.NormFloat64()*0.05)
		}
		b.Update(ctxs, rewards)
	}
	got := b.state.Theta()
	for i := range theta {
		if math.Abs(got[i]-theta[i]) > 0.2 {
			t.Fatalf("theta = %v, want approx %v", got, theta)
		}
	}
}

func TestC2UCBScoresIncludeExplorationBoost(t *testing.T) {
	b := NewC2UCB(3, 1)
	b.BeginRound()
	x := linalg.SparseFromDense(linalg.Vector{1, 0, 0})
	ucb := ucbScores(b, []linalg.SparseVector{x})[0]
	point := b.state.Theta().DotSparse(x)
	if ucb <= point {
		t.Fatalf("UCB %v should exceed point estimate %v for unexplored arm", ucb, point)
	}
}

func TestC2UCBBoostShrinksWithObservations(t *testing.T) {
	b := NewC2UCB(3, 1)
	x := linalg.SparseFromDense(linalg.Vector{1, 0.5, 0})
	b.BeginRound()
	before := ucbScores(b, []linalg.SparseVector{x})[0] - b.state.Theta().DotSparse(x)
	for i := 0; i < 30; i++ {
		b.Update([]linalg.SparseVector{x}, []float64{0})
	}
	after := ucbScores(b, []linalg.SparseVector{x})[0] - b.state.Theta().DotSparse(x)
	if after >= before {
		t.Fatalf("exploration boost did not shrink: %v -> %v", before, after)
	}
}

func TestC2UCBGeneralisesToUnseenArms(t *testing.T) {
	// The weight-sharing property: knowledge transfers to arms never
	// played, driven purely by context similarity.
	rng := rand.New(rand.NewSource(3))
	dim := 4
	theta := linalg.Vector{5, 0, -3, 1}
	b := NewC2UCB(dim, 0.25)
	for round := 0; round < 300; round++ {
		b.BeginRound()
		x := linalg.NewVector(dim)
		for i := range x {
			x[i] = rng.Float64()
		}
		sx := linalg.SparseFromDense(x)
		b.Update([]linalg.SparseVector{sx}, []float64{theta.DotSparse(sx) + rng.NormFloat64()*0.01})
	}
	unseen := linalg.SparseFromDense(linalg.Vector{1, 1, 0, 0}) // never played exactly
	got, want := b.state.Theta().DotSparse(unseen), theta.DotSparse(unseen)
	if math.Abs(got-want) > 0.5 {
		t.Fatalf("unseen arm estimate %v, want approx %v", got, want)
	}
}

func TestC2UCBForgetResetsKnowledge(t *testing.T) {
	b := NewC2UCB(2, 1)
	x := linalg.SparseFromDense(linalg.Vector{1, 0})
	for i := 0; i < 50; i++ {
		b.Update([]linalg.SparseVector{x}, []float64{10})
	}
	if b.state.Theta()[0] < 5 {
		t.Fatalf("theta not learned: %v", b.state.Theta())
	}
	b.Forget(1)
	if math.Abs(b.state.Theta()[0]) > 1e-9 {
		t.Fatalf("theta after full forget: %v", b.state.Theta())
	}
}

func TestC2UCBRewardScaleAdapts(t *testing.T) {
	b := NewC2UCB(2, 1)
	if b.rewardScale != 1 {
		t.Fatalf("initial scale = %v", b.rewardScale)
	}
	b.Update([]linalg.SparseVector{linalg.SparseFromDense(linalg.Vector{1, 0})}, []float64{500})
	if b.rewardScale < 400 {
		t.Fatalf("scale did not grow: %v", b.rewardScale)
	}
	// Decay pulls it down slowly across updates with small rewards.
	prev := b.rewardScale
	for i := 0; i < 100; i++ {
		b.Update([]linalg.SparseVector{linalg.SparseFromDense(linalg.Vector{0, 1})}, []float64{0.1})
	}
	if b.rewardScale >= prev {
		t.Fatal("scale never decays")
	}
}

func TestDefaultAlphaGrowsSlowly(t *testing.T) {
	if DefaultAlpha(1) <= 0 {
		t.Fatal("alpha must be positive")
	}
	if DefaultAlpha(1000) > 10*DefaultAlpha(1) {
		t.Fatal("alpha grows too fast")
	}
	if DefaultAlpha(100) < DefaultAlpha(1) {
		t.Fatal("alpha should be non-decreasing")
	}
}

// Property: with no noise and enough samples of orthogonal contexts, the
// point estimate converges to the true per-dimension reward.
func TestQuickC2UCBUnbiased(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 2 + rng.Intn(3)
		b := NewC2UCB(dim, 0.1)
		w := make(linalg.Vector, dim)
		for i := range w {
			w[i] = float64(rng.Intn(10)) - 5
		}
		for round := 0; round < 120; round++ {
			b.BeginRound()
			i := rng.Intn(dim)
			x := linalg.SparseVector{Dim: dim, Idx: []int{i}, Val: []float64{1}}
			b.Update([]linalg.SparseVector{x}, []float64{w[i]})
		}
		got := b.state.Theta()
		for i := range w {
			if math.Abs(got[i]-w[i]) > 0.5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// ucbScores is ScoresInto into a fresh slice.
func ucbScores(b *C2UCB, contexts []linalg.SparseVector) []float64 {
	out := make([]float64, len(contexts))
	b.ScoresInto(contexts, out)
	return out
}

// pointEstimates returns the exploitation-only estimates theta'x.
func pointEstimates(b *C2UCB, contexts []linalg.SparseVector) []float64 {
	out := make([]float64, len(contexts))
	for i, x := range contexts {
		out[i] = b.state.Theta().DotSparse(x)
	}
	return out
}

// sqNorm returns the squared Euclidean norm of v.
func sqNorm(v linalg.Vector) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}
