package env

import (
	"math"
	"testing"

	"dbabandits/internal/engine"
	"dbabandits/internal/index"
	"dbabandits/internal/policy"
	"dbabandits/internal/query"
)

func smallEnv(t *testing.T, regime Regime, rounds int) *Environment {
	t.Helper()
	e, err := New(Options{
		Benchmark:     "ssb",
		Regime:        regime,
		ScaleFactor:   10,
		MaxStoredRows: 1500,
		Rounds:        rounds,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// scriptedPolicy exercises the driver contract without any learning: it
// records what the driver passes in and follows a fixed configuration
// script.
type scriptedPolicy struct {
	env     policy.Env
	ix      *index.Index
	rounds  []int
	lastNil []bool
	observe []map[string]float64
	closed  int
}

func (p *scriptedPolicy) Name() string { return "scripted" }

func (p *scriptedPolicy) Recommend(round int, last []*query.Query) policy.Recommendation {
	p.rounds = append(p.rounds, round)
	p.lastNil = append(p.lastNil, last == nil)
	switch round {
	case 1:
		// Round 1 must decide blind; keep the empty configuration.
		return policy.Recommendation{}
	case 2:
		cfg := index.NewConfig()
		cfg.Add(p.ix)
		return policy.Recommendation{Config: cfg, RecommendSec: 1.5}
	default:
		// nil Config = keep the previous configuration.
		return policy.Recommendation{}
	}
}

func (p *scriptedPolicy) Observe(stats []*engine.ExecStats, creationSec map[string]float64) {
	// The map is borrowed (the driver refills it every round); a policy
	// that keeps feedback must copy it — which doubles as a regression
	// check that each round's charges actually reach the policy intact.
	cp := make(map[string]float64, len(creationSec))
	for k, v := range creationSec {
		cp[k] = v
	}
	p.observe = append(p.observe, cp)
}

func (p *scriptedPolicy) Close() { p.closed++ }

func TestRunPolicyDriverContract(t *testing.T) {
	e := smallEnv(t, Static, 4)
	ix := index.New("lineorder", []string{"lo_orderdate"}, nil)
	p := &scriptedPolicy{env: e, ix: ix}
	res, err := e.RunPolicy(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 4 || res.Tuner != "scripted" || res.Benchmark != "ssb" {
		t.Fatalf("result header wrong: %+v", res)
	}
	// Recommend is called once per round, 1-based, with nil lastWorkload
	// only in round 1.
	if len(p.rounds) != 4 || p.rounds[0] != 1 || p.rounds[3] != 4 {
		t.Fatalf("Recommend rounds = %v", p.rounds)
	}
	if !p.lastNil[0] || p.lastNil[1] || p.lastNil[2] {
		t.Fatalf("lastWorkload nil pattern = %v", p.lastNil)
	}
	// The index is created exactly once — in round 2 — and priced there.
	if len(p.observe) != 4 {
		t.Fatalf("Observe called %d times", len(p.observe))
	}
	if len(p.observe[0]) != 0 || len(p.observe[2]) != 0 {
		t.Fatalf("creation charged outside round 2: %v", p.observe)
	}
	if sec, ok := p.observe[1][ix.ID()]; !ok || sec <= 0 {
		t.Fatalf("round 2 creation cost missing: %v", p.observe[1])
	}
	r2 := res.Rounds[1]
	if r2.RecommendSec != 1.5 || r2.CreateSec != p.observe[1][ix.ID()] || r2.NumIndexes != 1 {
		t.Fatalf("round 2 accounting wrong: %+v", r2)
	}
	// nil-Config rounds keep the configuration without re-charging it.
	for _, rr := range res.Rounds[2:] {
		if rr.CreateSec != 0 || rr.NumIndexes != 1 {
			t.Fatalf("keep-configuration round wrong: %+v", rr)
		}
	}
	if p.closed != 1 {
		t.Fatalf("Close called %d times", p.closed)
	}
}

// TestRegisteredPolicyRunsThroughDriver registers a fresh policy through
// the registry alone and runs it by name — the extensibility contract of
// the policy layer (zero driver or harness edits).
func TestRegisteredPolicyRunsThroughDriver(t *testing.T) {
	policy.Register("keep-empty", func(e policy.Env, _ policy.Params) (policy.Policy, error) {
		if e.TotalRounds() <= 0 || e.MemoryBudgetBytes() <= 0 {
			t.Error("factory got an unprepared environment")
		}
		return &keepEmpty{}, nil
	})
	e := smallEnv(t, Static, 3)
	res, err := e.Run(TunerKind("keep-empty"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 3 || res.Tuner != "keep-empty" {
		t.Fatalf("custom policy result wrong: %+v", res)
	}
	rec, create, exec, _ := res.Totals()
	if rec != 0 || create != 0 || exec <= 0 {
		t.Fatalf("custom policy totals wrong: rec=%v create=%v exec=%v", rec, create, exec)
	}
}

type keepEmpty struct{}

func (keepEmpty) Name() string                                        { return "keep-empty" }
func (keepEmpty) Recommend(int, []*query.Query) policy.Recommendation { return policy.Recommendation{} }
func (keepEmpty) Observe([]*engine.ExecStats, map[string]float64)     {}
func (keepEmpty) Close()                                              {}

// TestAdvisorPolicyConverges sanity-checks the shipped online advisor:
// on static SSB (easily achievable index benefits) it must end with a
// non-empty configuration and beat the no-index baseline's final round.
func TestAdvisorPolicyConverges(t *testing.T) {
	e := smallEnv(t, Static, 6)
	noIdx, err := e.Run(NoIndex)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := e.Run(TunerKind("advisor"))
	if err != nil {
		t.Fatal(err)
	}
	if adv.Rounds[len(adv.Rounds)-1].NumIndexes == 0 {
		t.Fatal("advisor never materialised an index")
	}
	if adv.FinalRoundExecSec() >= noIdx.FinalRoundExecSec() {
		t.Fatalf("advisor final round %v not better than no-index %v",
			adv.FinalRoundExecSec(), noIdx.FinalRoundExecSec())
	}
	rec, _, _, _ := adv.Totals()
	if rec <= 0 {
		t.Fatal("advisor reported zero recommendation time despite what-if calls")
	}
}

// TestNonFiniteSizingRejected pins that NaN and ±Inf scale factors and
// budgets are errors rather than silently sizing the data or the budget
// as garbage, while zero and negative values keep meaning "default".
func TestNonFiniteSizingRejected(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := New(Options{Benchmark: "ssb", Regime: Static, ScaleFactor: v, MaxStoredRows: 200}); err == nil {
			t.Errorf("ScaleFactor %v accepted", v)
		}
		if _, err := New(Options{Benchmark: "ssb", Regime: Static, MemoryBudgetX: v, MaxStoredRows: 200}); err == nil {
			t.Errorf("MemoryBudgetX %v accepted", v)
		}
	}
	e, err := New(Options{Benchmark: "ssb", Regime: Static, ScaleFactor: -1, MemoryBudgetX: 0, MaxStoredRows: 200})
	if err != nil {
		t.Fatal(err)
	}
	if e.Opts.ScaleFactor != 10 || e.Opts.MemoryBudgetX != 1 {
		t.Fatalf("defaults not applied: sf %v, budget x %v", e.Opts.ScaleFactor, e.Opts.MemoryBudgetX)
	}
}

func TestUnknownRegimeAndPolicy(t *testing.T) {
	if _, err := New(Options{Benchmark: "ssb", Regime: "weird"}); err == nil {
		t.Fatal("unknown regime accepted")
	}
	e := smallEnv(t, Static, 2)
	if _, err := e.Run(TunerKind("alien")); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
