package harness

import (
	"testing"

	"dbabandits/internal/env"
	"dbabandits/internal/mab"
)

func TestWarmStartReducesEarlyCost(t *testing.T) {
	cold := smallExperiment(t, env.Static, 5)
	coldRes, err := cold.Run(env.MAB)
	if err != nil {
		t.Fatal(err)
	}
	warm := smallExperiment(t, env.Static, 5)
	warm.Opts.MABWarmStartRounds = 3
	warmRes, err := warm.Run(env.MAB)
	if err != nil {
		t.Fatal(err)
	}
	early := func(r *env.RunResult) float64 {
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
	base := smallExperiment(t, env.Static, 8)
	base.Opts.MAB = mab.TunerOptions{MemoryBudgetBytes: base.Budget}
	baseRes, err := base.Run(env.MAB)
	if err != nil {
		t.Fatal(err)
	}
	free := smallExperiment(t, env.Static, 8)
	free.Opts.MAB = mab.TunerOptions{
		MemoryBudgetBytes: free.Budget,
		NoCreationPenalty: true,
	}
	freeRes, err := free.Run(env.MAB)
	if err != nil {
		t.Fatal(err)
	}
	_, baseCreate, _, _ := baseRes.Totals()
	_, freeCreate, _, _ := freeRes.Totals()
	if freeCreate < baseCreate {
		t.Fatalf("removing the creation penalty reduced creation spend: %v vs %v", freeCreate, baseCreate)
	}
}

func TestScaleFactorGrowsTotals(t *testing.T) {
	mk := func(sf float64) float64 {
		e, err := env.New(env.Options{
			Benchmark:     "tpch",
			Regime:        env.Static,
			Rounds:        3,
			ScaleFactor:   sf,
			MaxStoredRows: 1000,
			Seed:          5,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(env.NoIndex)
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
	unlimited := smallExperiment(t, env.Random, 9)
	uRes, err := unlimited.Run(env.PDTool)
	if err != nil {
		t.Fatal(err)
	}
	limited := smallExperiment(t, env.Random, 9)
	limited.Opts.PDToolTimeLimitSec = 1
	lRes, err := limited.Run(env.PDTool)
	if err != nil {
		t.Fatal(err)
	}
	uRec, _, _, _ := uRes.Totals()
	lRec, _, _, _ := lRes.Totals()
	if lRec > uRec {
		t.Fatalf("time limit increased recommendation time: %v vs %v", lRec, uRec)
	}
}
