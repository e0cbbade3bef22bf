// Package env prepares and drives the simulation environment of the
// paper's experiments: benchmark data generation, the optimiser and
// executor, workload sequencing, what-if/creation costing, and per-round
// accounting. One round of Algorithm 2 is stated once, in
// Environment.Step: the batch driver RunPolicySpan (and RunPolicy over
// it) loops Step over the sequencer, and the serving session runs the
// same Step over each fed window, so every tuning strategy implementing
// policy.Policy shares this one round.
package env

import (
	"fmt"
	"math"
	"sort"

	"dbabandits/internal/catalog"
	"dbabandits/internal/datagen"
	"dbabandits/internal/engine"
	"dbabandits/internal/index"
	"dbabandits/internal/optimizer"
	"dbabandits/internal/policy"
	"dbabandits/internal/query"
	"dbabandits/internal/storage"
	"dbabandits/internal/workload"
)

// Regime names a workload regime.
type Regime string

// The three regimes of Section V-A, plus the hybrid
// transactional/analytical regime of the journal follow-up ("No DBA? No
// regret!", VLDB J. 2023), where update-heavy rounds interleave with the
// analytical ones and index maintenance is charged against reward.
const (
	Static   Regime = "static"
	Shifting Regime = "shifting"
	Random   Regime = "random"
	HTAP     Regime = "htap"
)

// Options configure one experiment environment.
type Options struct {
	Benchmark string
	Regime    Regime
	// ScaleFactor defaults to 10 (the paper's default); Table II uses 1
	// and 100.
	ScaleFactor float64
	// MaxStoredRows caps physical rows (default 5000 — small enough for
	// fast experiment turnaround, large enough for stable selectivities).
	MaxStoredRows int
	// Rounds overrides the regime default (25 static/random, 80 shifting).
	Rounds int
	// Seed drives data generation and workload sequencing.
	Seed int64
	// MemoryBudgetX is the index budget as a multiple of the data size
	// (default 1.0, the paper's setting).
	MemoryBudgetX float64
	// Params carries the per-strategy knobs (the bandit's warm start,
	// policy seeds, the PDTool time limit; see policy.Params). A zero
	// RandomSeed falls back to Seed. Read at Run time like the rest of
	// Opts, so callers may tweak them between runs.
	policy.Params
}

// Environment is a prepared benchmark environment: database, cost model,
// optimiser, workload sequencer and memory budget. Any policy can be run
// over the same environment, so all tuners of one benchmark compare
// against identical data and workload sequences.
type Environment struct {
	Opts   Options
	Bench  *workload.Benchmark
	Schema *catalog.Schema
	DB     *storage.Database
	CM     *engine.CostModel
	Opt    *optimizer.Optimizer
	Seq    workload.Sequencer
	Budget int64
}

// New prepares an environment.
func New(opts Options) (*Environment, error) {
	bench, err := workload.ByName(opts.Benchmark)
	if err != nil {
		return nil, err
	}
	// NaN and ±Inf slip past the "<= 0 means default" checks below and
	// would size the data or the budget as garbage.
	if !finite(opts.ScaleFactor) {
		return nil, fmt.Errorf("env: ScaleFactor must be finite, got %v", opts.ScaleFactor)
	}
	if !finite(opts.MemoryBudgetX) {
		return nil, fmt.Errorf("env: MemoryBudgetX must be finite, got %v", opts.MemoryBudgetX)
	}
	if opts.ScaleFactor <= 0 {
		opts.ScaleFactor = 10
	}
	if opts.MaxStoredRows <= 0 {
		opts.MaxStoredRows = 5000
	}
	if opts.MemoryBudgetX <= 0 {
		opts.MemoryBudgetX = 1
	}
	schema := bench.NewSchema()
	db, err := datagen.Build(schema, datagen.Options{
		Seed:          opts.Seed,
		ScaleFactor:   opts.ScaleFactor,
		MaxStoredRows: opts.MaxStoredRows,
	})
	if err != nil {
		return nil, err
	}
	cm := engine.DefaultCostModel()
	e := &Environment{
		Opts:   opts,
		Bench:  bench,
		Schema: schema,
		DB:     db,
		CM:     cm,
		Opt:    optimizer.New(schema, cm),
		Budget: int64(float64(db.DataSizeBytes()) * opts.MemoryBudgetX),
	}
	switch opts.Regime {
	case Static:
		e.Seq = workload.NewStatic(bench, db, opts.Seed, opts.Rounds)
	case Shifting:
		// Ragged totals are supported: rounds are floor-partitioned over
		// the four groups rather than truncated to a multiple of four.
		e.Seq = workload.NewShifting(bench, db, opts.Seed, opts.Rounds)
	case Random:
		e.Seq = workload.NewRandom(bench, db, opts.Seed, opts.Rounds)
	case HTAP:
		e.Seq = workload.NewHTAP(bench, db, opts.Seed, opts.Rounds)
	default:
		return nil, fmt.Errorf("env: unknown regime %q", opts.Regime)
	}
	return e, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// PlanCacheStats returns the optimiser's cumulative plan-cache counters
// for this environment — zero-valued when Opt is an uncached optimiser
// (optimizer.NewUncached). They feed logs and benchmark labels only; no golden-pinned result or
// RunResult field includes them, so cached and uncached runs stay
// byte-identical.
func (e *Environment) PlanCacheStats() optimizer.PlanCacheStats {
	return e.Opt.CacheStats()
}

// executeWorkload runs one round's queries under the configuration,
// appending the per-query stats to the supplied buffer (reset first) —
// Step hands the same backing array back every round — and returns the
// summed execution time.
func (e *Environment) executeWorkload(queries []*query.Query, cfg *index.Config, stats []*engine.ExecStats) (float64, []*engine.ExecStats, error) {
	var total float64
	stats = stats[:0]
	for _, q := range queries {
		plan, err := e.Opt.ChoosePlan(q, cfg)
		if err != nil {
			return 0, nil, fmt.Errorf("planning template %d: %w", q.TemplateID, err)
		}
		st, err := engine.Execute(e.DB, plan, e.CM)
		if err != nil {
			return 0, nil, fmt.Errorf("executing template %d: %w", q.TemplateID, err)
		}
		total += st.TotalSec
		stats = append(stats, st)
	}
	return total, stats, nil
}

// CreationCost prices materialising the given indexes and returns the
// per-index seconds plus the sum. The returned map is freshly allocated
// and the caller's to keep.
func (e *Environment) CreationCost(toCreate []*index.Index) (map[string]float64, float64) {
	per := make(map[string]float64, len(toCreate))
	return per, e.creationCostInto(toCreate, per)
}

// creationCostInto is CreationCost filling the supplied map (cleared
// first) and returning the sum.
func (e *Environment) creationCostInto(toCreate []*index.Index, per map[string]float64) float64 {
	clear(per)
	var total float64
	for _, ix := range toCreate {
		sec := e.IndexCreationSec(ix)
		if sec < 0 {
			continue
		}
		per[ix.ID()] = sec
		total += sec
	}
	return total
}

// MaintenanceCost prices the index maintenance a round's update
// statements induce on the given configuration: for every statement, each
// index on the written table that the statement touches (every index for
// INSERTs, only indexes containing a written column for UPDATEs) pays the
// cost model's write amplification for the affected rows — UPDATEs pay
// twice per entry (delete + insert). It returns the per-index seconds
// plus the sum; both are exactly zero for a round with no updates, so
// analytical regimes are unaffected.
func (e *Environment) MaintenanceCost(updates []query.Update, cfg *index.Config) (map[string]float64, float64) {
	if len(updates) == 0 || cfg == nil || cfg.Len() == 0 {
		return nil, 0
	}
	per := map[string]float64{}
	total, _ := e.maintenanceCostInto(updates, cfg, per, nil)
	return per, total
}

// maintenanceCostInto is MaintenanceCost filling the supplied map
// (cleared first), sorting ids in the supplied buffer. It returns the
// sum and the (possibly regrown) id buffer for the caller to reuse.
func (e *Environment) maintenanceCostInto(updates []query.Update, cfg *index.Config, per map[string]float64, ids []string) (float64, []string) {
	clear(per)
	for _, u := range updates {
		meta, ok := e.Schema.Table(u.Table)
		if !ok {
			continue
		}
		for _, ix := range cfg.OnTable(u.Table) {
			if !ix.TouchedBy(u) {
				continue
			}
			entries := u.Rows
			if u.Kind == query.UpdateModify {
				entries *= 2 // delete the old entry, insert the new one
			}
			entryWidth := float64(ix.EntryWidthBytes(meta))
			indexPages := e.CM.PagesOf(ix.SizeBytes(meta))
			per[ix.ID()] += e.CM.IndexWriteSec(entries, entryWidth, indexPages)
		}
	}
	// The round total is the per-index sum in sorted-id order: exact
	// per-index additivity (what the property tests pin) and a
	// deterministic float result regardless of map iteration.
	ids = ids[:0]
	for id := range per {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var total float64
	for _, id := range ids {
		total += per[id]
	}
	return total, ids
}

// The policy.Env capability view. Method names differ from the exported
// field names (Go disallows a method shadowing a field), but each is a
// trivial projection of the prepared environment.

// Catalog implements policy.Env.
func (e *Environment) Catalog() *catalog.Schema { return e.Schema }

// DataSizeBytes implements policy.Env.
func (e *Environment) DataSizeBytes() int64 { return e.DB.DataSizeBytes() }

// MemoryBudgetBytes implements policy.Env.
func (e *Environment) MemoryBudgetBytes() int64 { return e.Budget }

// WhatIf implements policy.Env.
func (e *Environment) WhatIf() *optimizer.Optimizer { return e.Opt }

// RegimeName implements policy.Env.
func (e *Environment) RegimeName() string { return string(e.Opts.Regime) }

// TotalRounds implements policy.Env.
func (e *Environment) TotalRounds() int { return e.Seq.Rounds() }

// WorkloadAt implements policy.Env.
func (e *Environment) WorkloadAt(r int) []*query.Query { return e.Seq.Round(r) }

// IndexCreationSec implements policy.Env. It returns -1 for an index on
// an unknown table (CreationCost skips such indexes).
func (e *Environment) IndexCreationSec(ix *index.Index) float64 {
	meta, ok := e.Schema.Table(ix.Table)
	if !ok {
		return -1
	}
	return e.CM.IndexBuildSec(meta, ix.SizeBytes(meta))
}

// HasUpdates implements policy.UpdateEnv: whether this environment's
// regime can issue update statements.
func (e *Environment) HasUpdates() bool {
	_, ok := e.Seq.(workload.UpdateSequencer)
	return ok
}

// UpdatesAt returns round r's update statements — nil for analytical
// regimes and analytical-only rounds. It is deliberately NOT part of
// policy.UpdateEnv: the driver is its only policy-facing consumer
// (statements reach policies through UpdateAware.ObserveUpdates after
// execution), so no policy can peek at future churn.
func (e *Environment) UpdatesAt(r int) []query.Update {
	if us, ok := e.Seq.(workload.UpdateSequencer); ok {
		return us.UpdatesAt(r)
	}
	return nil
}

// policyParams returns the per-strategy knobs of Opts, read at Run time
// so callers may tweak Opts between runs; a zero RandomSeed falls back
// to Seed.
func (e *Environment) policyParams() policy.Params {
	p := e.Opts.Params
	if p.RandomSeed == 0 {
		p.RandomSeed = e.Opts.Seed
	}
	return p
}

var (
	_ policy.Env       = (*Environment)(nil)
	_ policy.UpdateEnv = (*Environment)(nil)
)
