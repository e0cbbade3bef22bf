package harness

import (
	"testing"

	"dbabandits/internal/mab"
)

func TestWarmStartReducesEarlyCost(t *testing.T) {
	cold := smallExperiment(t, Static, 5)
	coldRes, err := cold.Run(MAB)
	if err != nil {
		t.Fatal(err)
	}
	warm := smallExperiment(t, Static, 5)
	warm.Opts.MABWarmStartRounds = 3
	warmRes, err := warm.Run(MAB)
	if err != nil {
		t.Fatal(err)
	}
	early := func(r *RunResult) float64 {
		var s float64
		for _, rr := range r.Rounds[:3] {
			s += rr.ExecSec
		}
		return s
	}
	// Warm starting must not be catastrophically worse early on; it
	// usually helps (the what-if estimates are accurate on uniform SSB).
	if early(warmRes) > early(coldRes)*1.25 {
		t.Fatalf("warm start hurt early rounds badly: %v vs %v", early(warmRes), early(coldRes))
	}
}

func TestCreationPenaltyAblationIncreasesCreation(t *testing.T) {
	base := smallExperiment(t, Static, 8)
	base.Opts.MAB = mab.TunerOptions{MemoryBudgetBytes: base.Budget}
	baseRes, err := base.Run(MAB)
	if err != nil {
		t.Fatal(err)
	}
	free := smallExperiment(t, Static, 8)
	free.Opts.MAB = mab.TunerOptions{
		MemoryBudgetBytes: free.Budget,
		NoCreationPenalty: true,
	}
	freeRes, err := free.Run(MAB)
	if err != nil {
		t.Fatal(err)
	}
	_, baseCreate, _, _ := baseRes.Totals()
	_, freeCreate, _, _ := freeRes.Totals()
	if freeCreate < baseCreate {
		t.Fatalf("removing the creation penalty reduced creation spend: %v vs %v", freeCreate, baseCreate)
	}
}

func TestOneHotContextAblationRuns(t *testing.T) {
	e := smallExperiment(t, Static, 4)
	e.Opts.MAB = mab.TunerOptions{
		MemoryBudgetBytes: e.Budget,
		OneHotContext:     true,
	}
	res, err := e.Run(MAB)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 4 {
		t.Fatalf("rounds = %d", len(res.Rounds))
	}
}

func TestScaleFactorGrowsTotals(t *testing.T) {
	mk := func(sf float64) float64 {
		e, err := New(Options{
			Benchmark:     "tpch",
			Regime:        Static,
			Rounds:        3,
			ScaleFactor:   sf,
			MaxStoredRows: 1000,
			Seed:          5,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(NoIndex)
		if err != nil {
			t.Fatal(err)
		}
		_, _, _, total := res.Totals()
		return total
	}
	sf1 := mk(1)
	sf10 := mk(10)
	ratio := sf10 / sf1
	if ratio < 5 || ratio > 20 {
		t.Fatalf("SF10/SF1 total ratio = %v, want roughly 10", ratio)
	}
}

func TestPDToolTimeLimitShrinksRecommendation(t *testing.T) {
	unlimited := smallExperiment(t, Random, 9)
	uRes, err := unlimited.Run(PDTool)
	if err != nil {
		t.Fatal(err)
	}
	limited := smallExperiment(t, Random, 9)
	limited.Opts.PDToolTimeLimitSec = 1
	lRes, err := limited.Run(PDTool)
	if err != nil {
		t.Fatal(err)
	}
	uRec, _, _, _ := uRes.Totals()
	lRec, _, _, _ := lRes.Totals()
	if lRec > uRec {
		t.Fatalf("time limit increased recommendation time: %v vs %v", lRec, uRec)
	}
}
