package harness

import (
	"strings"
	"testing"

	"dbabandits/internal/env"
)

// smallExperiment builds a fast SSB experiment for integration tests.
func smallExperiment(t *testing.T, regime env.Regime, rounds int) *env.Environment {
	t.Helper()
	e, err := env.New(env.Options{
		Benchmark:     "ssb",
		Regime:        regime,
		ScaleFactor:   10,
		MaxStoredRows: 2000,
		Rounds:        rounds,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestExperimentAllTunersRun(t *testing.T) {
	e := smallExperiment(t, env.Static, 5)
	for _, kind := range []env.TunerKind{env.NoIndex, env.PDTool, env.MAB, env.DDQN, env.DDQNSC} {
		res, err := e.Run(kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(res.Rounds) != 5 {
			t.Fatalf("%s: %d rounds", kind, len(res.Rounds))
		}
		_, _, exec, total := res.Totals()
		if exec <= 0 || total < exec {
			t.Fatalf("%s: exec=%v total=%v", kind, exec, total)
		}
	}
}

func TestNoIndexHasNoOverheads(t *testing.T) {
	e := smallExperiment(t, env.Static, 3)
	res, err := e.Run(env.NoIndex)
	if err != nil {
		t.Fatal(err)
	}
	rec, create, _, _ := res.Totals()
	if rec != 0 || create != 0 {
		t.Fatalf("NoIndex overheads: rec=%v create=%v", rec, create)
	}
	for _, r := range res.Rounds {
		if r.NumIndexes != 0 {
			t.Fatal("NoIndex created indexes")
		}
	}
}

func TestPDToolInvokedOnSchedule(t *testing.T) {
	e := smallExperiment(t, env.Static, 6)
	res, err := e.Run(env.PDTool)
	if err != nil {
		t.Fatal(err)
	}
	// Static: a single invocation in round 2.
	for _, r := range res.Rounds {
		if r.Round == 2 {
			if r.RecommendSec == 0 {
				t.Fatal("PDTool not invoked in round 2")
			}
		} else if r.RecommendSec != 0 {
			t.Fatalf("PDTool invoked in round %d", r.Round)
		}
	}

	er := smallExperiment(t, env.Random, 12)
	resR, err := er.Run(env.PDTool)
	if err != nil {
		t.Fatal(err)
	}
	var invoked []int
	for _, r := range resR.Rounds {
		if r.RecommendSec > 0 {
			invoked = append(invoked, r.Round)
		}
	}
	want := []int{5, 9}
	if len(invoked) != len(want) {
		t.Fatalf("random invocations = %v, want %v", invoked, want)
	}
	for i := range want {
		if invoked[i] != want[i] {
			t.Fatalf("random invocations = %v, want %v", invoked, want)
		}
	}
}

func TestMABConvergesOnStaticSSB(t *testing.T) {
	e := smallExperiment(t, env.Static, 10)
	noIdx, err := e.Run(env.NoIndex)
	if err != nil {
		t.Fatal(err)
	}
	mabRes, err := e.Run(env.MAB)
	if err != nil {
		t.Fatal(err)
	}
	// SSB has "easily achievable high index benefits": by the final round
	// the MAB's execution time must be measurably below NoIndex and below
	// its own cold first round.
	if mabRes.FinalRoundExecSec() >= 0.9*noIdx.FinalRoundExecSec() {
		t.Fatalf("MAB final round %v vs NoIndex %v: no convergence",
			mabRes.FinalRoundExecSec(), noIdx.FinalRoundExecSec())
	}
	if mabRes.FinalRoundExecSec() >= mabRes.Rounds[0].ExecSec {
		t.Fatalf("MAB final round %v not better than its first round %v",
			mabRes.FinalRoundExecSec(), mabRes.Rounds[0].ExecSec)
	}
}

func TestShiftingRegimeRuns(t *testing.T) {
	e := smallExperiment(t, env.Shifting, 8) // 4 groups x 2 rounds
	res, err := e.Run(env.MAB)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 8 {
		t.Fatalf("rounds = %d", len(res.Rounds))
	}
	pd, err := e.Run(env.PDTool)
	if err != nil {
		t.Fatal(err)
	}
	var invoked []int
	for _, r := range pd.Rounds {
		if r.RecommendSec > 0 {
			invoked = append(invoked, r.Round)
		}
	}
	// 4 groups, invoked on each group's second round: 2, 4, 6, 8.
	if len(invoked) != 4 {
		t.Fatalf("shifting invocations = %v", invoked)
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	e := smallExperiment(t, env.Static, 4)
	var runs []*env.RunResult
	for _, kind := range []env.TunerKind{env.NoIndex, env.PDTool, env.MAB} {
		r, err := e.Run(kind)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}
	var sb strings.Builder
	RenderConvergence(&sb, "ssb static", runs)
	if !strings.Contains(sb.String(), "round") || !strings.Contains(sb.String(), "mab") {
		t.Fatalf("convergence output missing columns:\n%s", sb.String())
	}
	sb.Reset()
	RenderTotals(&sb, "static totals", map[string][]*env.RunResult{"ssb": runs})
	if !strings.Contains(sb.String(), "ssb") {
		t.Fatalf("totals output wrong:\n%s", sb.String())
	}
	sb.Reset()
	RenderTable1(&sb, map[env.Regime]map[string][]*env.RunResult{env.Static: {"ssb": runs}})
	if !strings.Contains(sb.String(), "Table I") {
		t.Fatal("table 1 missing header")
	}
	sb.Reset()
	RenderTable2(&sb, []Table2Row{{Benchmark: "tpch", SF: 10, PDToolMin: 1, MABMin: 2}})
	if !strings.Contains(sb.String(), "Table II") {
		t.Fatal("table 2 missing header")
	}
	csv := SeriesCSV(runs)
	if !strings.HasPrefix(csv, "round,noindex,pdtool,mab") {
		t.Fatalf("csv header wrong: %q", csv[:40])
	}
}

func TestSummariseRunsQuartiles(t *testing.T) {
	e := smallExperiment(t, env.Static, 3)
	var runs []*env.RunResult
	for seed := int64(0); seed < 3; seed++ {
		e.Opts.DDQNSeed = seed
		r, err := e.Run(env.DDQN)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}
	st := SummariseRuns(env.DDQN, runs)
	if len(st.MedianRounds) != 3 || len(st.Totals) != 3 {
		t.Fatalf("summary shape wrong: %+v", st)
	}
	for i := range st.MedianRounds {
		if st.Q1Rounds[i] > st.MedianRounds[i] || st.MedianRounds[i] > st.Q3Rounds[i] {
			t.Fatalf("quartiles out of order at %d", i)
		}
	}
	var sb strings.Builder
	RenderFig8(&sb, "tpch rl", []Fig8Stats{st})
	if !strings.Contains(sb.String(), "ddqn") {
		t.Fatal("fig8 output missing method")
	}
}

func TestSpeedupFormat(t *testing.T) {
	if got := Speedup(100, 25); got != "75%" {
		t.Fatalf("speedup = %q", got)
	}
	if got := Speedup(0, 5); got != "n/a" {
		t.Fatalf("speedup = %q", got)
	}
}

func TestUnknownBenchmarkAndRegime(t *testing.T) {
	if _, err := env.New(env.Options{Benchmark: "nope", Regime: env.Static}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := env.New(env.Options{Benchmark: "ssb", Regime: "weird"}); err == nil {
		t.Fatal("unknown regime accepted")
	}
	e := smallExperiment(t, env.Static, 2)
	if _, err := e.Run(env.TunerKind("alien")); err == nil {
		t.Fatal("unknown tuner accepted")
	}
}
