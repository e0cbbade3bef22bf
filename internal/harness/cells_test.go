package harness

import (
	"reflect"
	"strings"
	"testing"

	"dbabandits/internal/env"
)

// sweepSpecs builds a small static sweep: two benchmarks × three
// tuners, shrunk for test speed.
func sweepSpecs(t *testing.T) []CellSpec {
	t.Helper()
	var specs []CellSpec
	for _, bench := range []string{"ssb", "tpch"} {
		for _, kind := range []env.TunerKind{env.NoIndex, env.PDTool, env.MAB} {
			specs = append(specs, CellSpec{
				Options: env.Options{
					Benchmark:     bench,
					Regime:        env.Static,
					Rounds:        3,
					ScaleFactor:   10,
					MaxStoredRows: 600,
					Seed:          1,
				},
				Tuner: kind,
			})
		}
	}
	return specs
}

// TestRunCellsDeterministic asserts the headline contract: the same
// specs produce identical RunResults (full per-round breakdowns, hence
// identical totals) at every parallelism level.
func TestRunCellsDeterministic(t *testing.T) {
	reference := RunCells(sweepSpecs(t), RunCellsOptions{Parallel: 1})
	if errs := CellErrs(reference); len(errs) > 0 {
		t.Fatalf("reference sweep failed: %v", errs)
	}
	for _, parallel := range []int{2, 8} {
		got := RunCells(sweepSpecs(t), RunCellsOptions{Parallel: parallel})
		if len(got) != len(reference) {
			t.Fatalf("Parallel=%d: %d results, want %d", parallel, len(got), len(reference))
		}
		for i := range reference {
			if got[i].Err != nil {
				t.Errorf("Parallel=%d: cell %s failed: %v", parallel, got[i].Spec.Key(), got[i].Err)
				continue
			}
			if got[i].Spec.Key() != reference[i].Spec.Key() {
				t.Errorf("Parallel=%d: cell %d is %s, want %s (order not preserved)",
					parallel, i, got[i].Spec.Key(), reference[i].Spec.Key())
			}
			if !reflect.DeepEqual(got[i].Res, reference[i].Res) {
				gr, gc, ge, gt := got[i].Res.Totals()
				rr, rc, re, rt := reference[i].Res.Totals()
				t.Errorf("Parallel=%d: cell %s diverged: totals (%g %g %g %g), want (%g %g %g %g)",
					parallel, got[i].Spec.Key(), gr, gc, ge, gt, rr, rc, re, rt)
			}
		}
	}
}

// TestRunCellsErrorIsolation asserts that one broken cell reports its
// error without aborting sibling cells.
func TestRunCellsErrorIsolation(t *testing.T) {
	specs := []CellSpec{
		{Options: env.Options{Benchmark: "ssb", Regime: env.Static, Rounds: 2,
			MaxStoredRows: 400, Seed: 1}, Tuner: env.NoIndex},
		{Options: env.Options{Benchmark: "no-such-benchmark", Regime: env.Static, Rounds: 2,
			MaxStoredRows: 400, Seed: 1}, Tuner: env.MAB},
		{Options: env.Options{Benchmark: "ssb", Regime: env.Static, Rounds: 2,
			MaxStoredRows: 400, Seed: 1}, Tuner: env.MAB},
	}
	results := RunCells(specs, RunCellsOptions{Parallel: 3})
	if results[0].Err != nil || results[0].Res == nil {
		t.Errorf("cell 0: %v, want success", results[0].Err)
	}
	if results[1].Err == nil {
		t.Error("cell 1: want error for unknown benchmark")
	} else if !strings.Contains(results[1].Err.Error(), "no-such-benchmark") {
		t.Errorf("cell 1 err = %v, want it to name the bad benchmark", results[1].Err)
	}
	if results[2].Err != nil || results[2].Res == nil {
		t.Errorf("cell 2: %v, want success (sibling must survive)", results[2].Err)
	}
	if errs := CellErrs(results); len(errs) != 1 {
		t.Errorf("CellErrs = %v, want exactly 1", errs)
	}
}

// TestRunCellsProgress checks that the progress writer sees one line per
// cell, labelled by cell key.
func TestRunCellsProgress(t *testing.T) {
	var buf strings.Builder
	specs := sweepSpecs(t)[:2]
	RunCells(specs, RunCellsOptions{Parallel: 2, Progress: &buf})
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(specs) {
		t.Fatalf("progress lines = %d, want %d:\n%s", len(lines), len(specs), buf.String())
	}
	for _, spec := range specs {
		if !strings.Contains(buf.String(), spec.Key()) {
			t.Errorf("progress output missing cell %s:\n%s", spec.Key(), buf.String())
		}
	}
}

// TestCellSeedDerivation pins the seeding contract: the base seed is
// untouched (tuners must share data), DDQN reps split deterministically,
// and an explicit DDQNSeed wins over derivation.
func TestCellSeedDerivation(t *testing.T) {
	base := CellSpec{
		Options: env.Options{Benchmark: "tpch", Regime: env.Static, Seed: 7},
		Tuner:   env.DDQN,
	}

	d0 := base.withDerivedSeeds()
	if d0.Seed != 7 {
		t.Errorf("base seed changed to %d, want 7", d0.Seed)
	}
	if d0.DDQNSeed == 0 {
		t.Error("DDQN cell did not derive a DDQNSeed")
	}
	if again := base.withDerivedSeeds(); again.DDQNSeed != d0.DDQNSeed {
		t.Errorf("derivation unstable: %d vs %d", again.DDQNSeed, d0.DDQNSeed)
	}

	rep1 := base
	rep1.Rep = 1
	if d1 := rep1.withDerivedSeeds(); d1.DDQNSeed == d0.DDQNSeed {
		t.Error("distinct reps derived the same DDQNSeed")
	}

	explicit := base
	explicit.DDQNSeed = 99
	if de := explicit.withDerivedSeeds(); de.DDQNSeed != 99 {
		t.Errorf("explicit DDQNSeed overridden to %d, want 99", de.DDQNSeed)
	}

	mab := base
	mab.Tuner = env.MAB
	if dm := mab.withDerivedSeeds(); dm.DDQNSeed != 0 {
		t.Errorf("deterministic tuner derived DDQNSeed %d, want 0", dm.DDQNSeed)
	}
}
