// Package harness is what only experiments add over internal/env:
// parallel sweep cells (RunCells), which fan independent benchmark ×
// regime × tuner × repetition runs across a bounded worker pool, and the
// figure, table and fleet renderers. Environments, policies and the
// round itself (env.Step, looped by Environment.RunPolicy) come from
// internal/env and internal/policy directly; adding a tuning strategy
// means registering a policy.Factory, and no code here changes.
package harness

import (
	"fmt"
	"io"

	"dbabandits/internal/env"
	"dbabandits/internal/runner"
)

// CellSpec identifies one independent cell of an experiment sweep: a
// benchmark × regime × tuner × repetition point together with its
// sizing knobs (the embedded Options). Cells are self-contained — each
// builds its own database and workload sequence from Options.Seed — so
// a sweep may run them in any order, concurrently, without changing any
// cell's numbers.
type CellSpec struct {
	env.Options
	// Tuner selects the strategy this cell runs.
	Tuner env.TunerKind
	// Rep distinguishes repeated runs of stochastic tuners (the paper
	// repeats DDQN ten times in Figure 8). Deterministic tuners use 0.
	Rep int
}

// Key names the cell within its sweep. It is the identity the
// deterministic seed derivation hashes, so two specs with equal keys
// and equal base seeds receive identical private RNG streams. The
// scale factor is part of the identity (Table II sweeps it); it is
// normalised to the Options default so pre- and post-default specs
// name the same cell.
func (s CellSpec) Key() string {
	sf := s.ScaleFactor
	if sf <= 0 {
		sf = 10
	}
	return fmt.Sprintf("%s/%s/%s/sf%g/rep%d", s.Benchmark, s.Regime, s.Tuner, sf, s.Rep)
}

// withDerivedSeeds fills the tuner-private seeds that were left unset.
// Options.Seed is deliberately NOT derived: data generation and
// workload sequencing must be identical across the tuners of one
// benchmark/regime pair, or their comparison would be meaningless. Only
// per-cell stochastic state (the DDQN agent) splits off the base seed,
// keyed by the cell's identity so repetitions differ deterministically.
func (s CellSpec) withDerivedSeeds() CellSpec {
	if s.DDQNSeed == 0 && (s.Tuner == env.DDQN || s.Tuner == env.DDQNSC) {
		s.DDQNSeed = runner.CellSeed(s.Seed, s.Key())
	}
	if s.RandomSeed == 0 && s.Tuner == env.RandomConfig {
		s.RandomSeed = runner.CellSeed(s.Seed, s.Key())
	}
	return s
}

// CellResult pairs a cell with its outcome. Exactly one of Res/Err is
// set.
type CellResult struct {
	Spec CellSpec
	Res  *env.RunResult
	Err  error
}

// RunCellsOptions tune a RunCells sweep.
type RunCellsOptions struct {
	// Parallel bounds concurrently running cells; <= 0 means
	// runtime.GOMAXPROCS(0). Results are identical at any setting.
	Parallel int
	// Progress, when non-nil, receives one "[k/n] key" line per
	// completed cell (completion order, typically os.Stderr).
	Progress io.Writer
}

// RunCells executes every cell of a sweep across a bounded worker pool
// and returns one CellResult per spec, in spec order regardless of
// completion order. A failing cell reports its error in place without
// aborting sibling cells. Each cell prepares its own Experiment, so
// RunCells with Parallel: 1 is the sequential reference that any other
// parallelism level reproduces exactly.
func RunCells(specs []CellSpec, opts RunCellsOptions) []CellResult {
	tasks := make([]runner.Task[*env.RunResult], len(specs))
	derived := make([]CellSpec, len(specs))
	labels := make([]string, len(specs))
	for i := range specs {
		// New variable per iteration: the task closures below outlive
		// the loop (go.mod declares 1.21, pre-loopvar semantics).
		spec := specs[i].withDerivedSeeds()
		derived[i] = spec
		labels[i] = spec.Key()
		tasks[i] = func() (*env.RunResult, error) { return runCell(spec) }
	}
	ropts := runner.Options{Parallel: opts.Parallel}
	if opts.Progress != nil {
		ropts.OnDone = runner.Progress(opts.Progress, labels)
	}
	results := runner.Run(tasks, ropts)
	out := make([]CellResult, len(specs))
	for i, r := range results {
		out[i] = CellResult{Spec: derived[i], Res: r.Value, Err: r.Err}
	}
	return out
}

// runCell prepares and runs one cell end to end.
func runCell(spec CellSpec) (*env.RunResult, error) {
	exp, err := env.New(spec.Options)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Key(), err)
	}
	res, err := exp.Run(spec.Tuner)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Key(), err)
	}
	return res, nil
}

// CellErrs collects every failed cell's error, in spec order.
func CellErrs(results []CellResult) []error {
	var errs []error
	for _, r := range results {
		if r.Err != nil {
			errs = append(errs, r.Err)
		}
	}
	return errs
}
