package ddqn

import (
	"math"
	"math/rand"
	"testing"

	"dbabandits/internal/index"
	"dbabandits/internal/linalg"
	"dbabandits/internal/mab"
)

func TestMLPLearnsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP(rng, 3, []int{16, 16})
	f := func(x []float64) float64 { return 2*x[0] - x[1] + 0.5*x[2] }
	for i := 0; i < 20000; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		m.TrainStep(x, f(x), 0.01)
	}
	var worst float64
	for i := 0; i < 50; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		if d := math.Abs(m.Forward(x) - f(x)); d > worst {
			worst = d
		}
	}
	if worst > 0.25 {
		t.Fatalf("MLP did not fit linear target: worst error %v", worst)
	}
}

func TestMLPTrainStepReducesError(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMLP(rng, 2, []int{8, 8})
	x := []float64{0.5, -0.3}
	first := m.TrainStep(x, 3, 0.05)
	var last float64
	for i := 0; i < 200; i++ {
		last = m.TrainStep(x, 3, 0.05)
	}
	if last >= first {
		t.Fatalf("error did not decrease: %v -> %v", first, last)
	}
}

func TestMLPCloneAndCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP(rng, 2, []int{4})
	c := m.Clone()
	x := []float64{1, 2}
	if m.Forward(x) != c.Forward(x) {
		t.Fatal("clone diverges")
	}
	for i := 0; i < 50; i++ {
		m.TrainStep(x, 5, 0.1)
	}
	if m.Forward(x) == c.Forward(x) {
		t.Fatal("clone not independent")
	}
	c.CopyFrom(m)
	if m.Forward(x) != c.Forward(x) {
		t.Fatal("CopyFrom did not synchronise")
	}
}

func TestMLPParamCount(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// 3 -> 8 -> 8 -> 1: (3*8+8) + (8*8+8) + (8*1+1) = 32+72+9 = 113
	m := NewMLP(rng, 3, []int{8, 8})
	if got := m.ParamCount(); got != 113 {
		t.Fatalf("param count = %d, want 113", got)
	}
}

func TestMLPPanicsOnBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMLP(rng, 2, []int{4})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong input size")
		}
	}()
	m.Forward([]float64{1})
}

func TestEpsilonDecay(t *testing.T) {
	a := NewAgent(4, AgentOptions{Seed: 1})
	if e := a.Epsilon(); math.Abs(e-1) > 1e-9 {
		t.Fatalf("initial epsilon = %v", e)
	}
	a.samples = 2400
	if e := a.Epsilon(); math.Abs(e-0.01) > 1e-9 {
		t.Fatalf("decayed epsilon = %v", e)
	}
	a.samples = 1200
	mid := a.Epsilon()
	if mid <= 0.01 || mid >= 1 {
		t.Fatalf("mid-decay epsilon = %v", mid)
	}
}

func mkArmCtx(dim int, col string, size int64, single bool) (*mab.Arm, linalg.Vector) {
	key := []string{col}
	if !single {
		key = append(key, col+"_2")
	}
	arm := &mab.Arm{Index: index.New("t", key, nil), Table: "t", SizeBytes: size}
	x := linalg.NewVector(dim)
	x[0] = 1
	return arm, x
}

func TestSelectConfigRespectsBudget(t *testing.T) {
	a := NewAgent(4, AgentOptions{Seed: 2})
	var arms []*mab.Arm
	var ctxs []linalg.Vector
	for i := 0; i < 6; i++ {
		arm, x := mkArmCtx(4, string(rune('a'+i)), 40, true)
		arms = append(arms, arm)
		ctxs = append(ctxs, x)
	}
	for trial := 0; trial < 20; trial++ {
		sel := a.SelectConfig(arms, ctxs, 100)
		var total int64
		for _, s := range sel {
			total += s.SizeBytes
		}
		if total > 100 {
			t.Fatalf("budget exceeded: %d", total)
		}
	}
}

func TestSingleColumnVariantFilters(t *testing.T) {
	a := NewAgent(4, AgentOptions{Seed: 3, SingleColumn: true})
	single, xs := mkArmCtx(4, "a", 10, true)
	multi, xm := mkArmCtx(4, "b", 10, false)
	fa, fc := a.FilterArms([]*mab.Arm{single, multi}, []linalg.Vector{xs, xm})
	if len(fa) != 1 || len(fc) != 1 || fa[0].ID() != single.ID() {
		t.Fatalf("filtered arms = %v", fa)
	}
	// The full variant keeps everything.
	b := NewAgent(4, AgentOptions{Seed: 3})
	fb, _ := b.FilterArms([]*mab.Arm{single, multi}, []linalg.Vector{xs, xm})
	if len(fb) != 2 {
		t.Fatalf("unfiltered arms = %d", len(fb))
	}
}

func TestAgentLearnsToPickRewardingArm(t *testing.T) {
	dim := 3
	a := NewAgent(dim, AgentOptions{Seed: 4})
	good := &mab.Arm{Index: index.New("t", []string{"good"}, nil), Table: "t", SizeBytes: 10}
	bad := &mab.Arm{Index: index.New("t", []string{"bad"}, nil), Table: "t", SizeBytes: 10}
	gx := linalg.Vector{1, 0, 0}
	bx := linalg.Vector{0, 1, 0}
	arms := []*mab.Arm{good, bad}
	ctxs := []linalg.Vector{gx, bx}
	for round := 0; round < 120; round++ {
		sel := a.SelectConfig(arms, ctxs, 100)
		var sc []linalg.Vector
		var rw []float64
		for _, s := range sel {
			if s.ID() == good.ID() {
				sc = append(sc, gx)
				rw = append(rw, 50)
			} else {
				sc = append(sc, bx)
				rw = append(rw, -50)
			}
		}
		a.Observe(sc, rw, ctxs)
	}
	// With epsilon decayed, greedy selection should prefer the good arm.
	a.samples = 10000
	picks := 0
	for trial := 0; trial < 20; trial++ {
		sel := a.SelectConfig(arms, ctxs, 10) // budget for one arm
		if len(sel) == 1 && sel[0].ID() == good.ID() {
			picks++
		}
	}
	if picks < 15 {
		t.Fatalf("agent picked the rewarding arm only %d/20 times", picks)
	}
}

func TestObserveEmptyBufferNoop(t *testing.T) {
	a := NewAgent(3, AgentOptions{Seed: 5})
	a.Observe(nil, nil, nil) // must not panic
}

func TestReplayBufferWraps(t *testing.T) {
	a := NewAgent(2, AgentOptions{Seed: 6})
	fillReplay(a, bufferSize+30)
	if len(a.buffer) != bufferSize {
		t.Fatalf("buffer size = %d, want %d", len(a.buffer), bufferSize)
	}
	if !a.full {
		t.Fatal("buffer should report full")
	}
	if a.bufPos != 30 {
		t.Fatalf("ring position = %d, want 30", a.bufPos)
	}
}

// fillReplay records n transitions, each without a next decision point,
// in one Observe call.
func fillReplay(a *Agent, n int) {
	dim := a.online.sizes[0]
	xs := make([]linalg.Vector, n)
	rs := make([]float64, n)
	for i := range xs {
		xs[i] = linalg.NewVector(dim)
		xs[i][i%dim] = 1
		rs[i] = float64(i%7 - 3)
	}
	a.Observe(xs, rs, nil)
}
