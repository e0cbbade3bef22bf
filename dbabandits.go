// Package dbabandits is a Go reproduction of "DBA bandits: Self-driving
// index tuning under ad-hoc, analytical workloads with safety guarantees"
// (Perera, Oetomo, Rubinstein, Borovica-Gajic — ICDE 2021).
//
// It provides:
//
//   - the C2UCB contextual combinatorial bandit tuner for online index
//     selection (the paper's contribution), with dynamic workload-driven
//     arm generation, prefix-encoded contexts, a greedy knapsack super-arm
//     oracle, execution-gain reward shaping and shift-scaled forgetting;
//   - a self-contained analytical DBMS simulator (storage, deliberately
//     uniformity/AVI-limited optimiser, true-cost executor) to tune
//     against;
//   - the paper's comparison baselines: an offline what-if physical
//     design tool and a DDQN agent;
//   - the five benchmark suites (TPC-H, TPC-H Skew, SSB, TPC-DS,
//     JOB/IMDb) and four workload regimes (static, shifting, random,
//     and the HTAP regime of the journal follow-up, whose update-heavy
//     rounds charge index maintenance against every policy's reward);
//   - a pluggable tuning-policy layer: every strategy implements the
//     Policy interface, is constructed through a name-keyed registry
//     (RegisterPolicy / PolicyNames), and runs through the ONE generic
//     round-loop driver Experiment.RunPolicy — the seed strategies and
//     an online what-if advisor baseline ship pre-registered; and
//   - an experiment harness regenerating every figure and table of the
//     paper's evaluation, with a parallel sweep runner (RunCells) that
//     fans independent experiment cells across a bounded worker pool;
//     and
//   - an online serving mode (NewServeSession, cmd/serve): statement
//     windows arrive incrementally rather than from a preplanned
//     regime, sessions checkpoint to disk and resume byte-identically
//     (RestoreServeSession), and a runtime safety guardrail quarantines
//     the tuner back to the last-known-safe configuration when realized
//     cost regresses past its budget.
//
// Quick start (see examples/quickstart for the runnable version):
//
//	exp, err := dbabandits.NewExperiment(dbabandits.ExperimentOptions{
//	    Benchmark: "tpch", Regime: dbabandits.Static, Seed: 1,
//	})
//	res, err := exp.Run(dbabandits.MAB)
//	rec, create, exec, total := res.Totals()
//
// For custom integrations, NewTuner returns the bandit tuner directly: feed
// it each round's observed workload, materialise its recommendations, and
// report back per-query execution statistics.
//
// # Pluggable tuning policies
//
// A new tuning strategy needs no harness edits: implement Policy, register
// a factory, and every experiment surface (Experiment.Run, RunCells, the
// mabtune -tuner flag) can run it by name against the seed baselines:
//
//	dbabandits.RegisterPolicy("mine", func(e dbabandits.PolicyEnv, p dbabandits.PolicyParams) (dbabandits.Policy, error) {
//	    return &minePolicy{budget: e.MemoryBudgetBytes()}, nil
//	})
//	res, err := exp.Run(dbabandits.TunerKind("mine"))
//
// The driver calls Recommend at the top of each round with only the
// previously executed workload (policies never see the future), prices
// and applies the configuration delta, executes the round, and feeds the
// true execution statistics back through Observe.
//
// # Parallel sweeps
//
// Evaluation sweeps are grids of independent cells (benchmark × regime ×
// tuner × repetition). RunCells executes such a grid across a bounded
// worker pool (see examples/sweep):
//
//	results := dbabandits.RunCells(specs, dbabandits.RunCellsOptions{
//	    Parallel: runtime.GOMAXPROCS(0), Progress: os.Stderr,
//	})
//
// The deterministic-seeding contract: every cell builds its own database
// and workload sequence from its base Options.Seed (so all tuners of one
// benchmark compare against identical data), while per-cell stochastic
// state (the DDQN agent) draws its seed from a splittable hash of the
// cell's identity Key(). Results therefore do not depend on the worker
// count or on completion order — RunCells with Parallel: 8 reproduces
// Parallel: 1 byte for byte — and one failed cell reports its error in
// its CellResult without aborting sibling cells.
package dbabandits

import (
	"io"

	"dbabandits/internal/catalog"
	"dbabandits/internal/datagen"
	"dbabandits/internal/engine"
	"dbabandits/internal/env"
	"dbabandits/internal/harness"
	"dbabandits/internal/index"
	"dbabandits/internal/mab"
	"dbabandits/internal/optimizer"
	"dbabandits/internal/policy"
	"dbabandits/internal/query"
	"dbabandits/internal/serve"
	"dbabandits/internal/storage"
	"dbabandits/internal/workload"
)

// Core tuner types (the paper's contribution).
type (
	// Tuner is the MAB index tuner implementing Algorithm 2.
	Tuner = mab.Tuner
	// TunerOptions configures the tuner: the memory budget and the
	// HTAP update-aware context. The tuning constants are fixed (see
	// the README's "Tuning constants").
	TunerOptions = mab.TunerOptions
	// Recommendation is one round's output: the configuration to
	// materialise plus the modelled recommendation time.
	Recommendation = mab.Recommendation
	// Arm is one candidate index with its motivating queries.
	Arm = mab.Arm
	// QueryStore aggregates observed workload templates.
	QueryStore = mab.QueryStore
)

// Simulator types.
type (
	// Schema describes a database schema with statistics.
	Schema = catalog.Schema
	// Table is one table's logical definition.
	Table = catalog.Table
	// Database is a materialised (physical) database.
	Database = storage.Database
	// Query is a structured conjunctive analytical query.
	Query = query.Query
	// Predicate is a single-column filter.
	Predicate = query.Predicate
	// Index is a secondary-index definition.
	Index = index.Index
	// IndexConfig is a set of secondary indexes (a "configuration").
	IndexConfig = index.Config
	// CostModel holds the simulator's physical cost constants.
	CostModel = engine.CostModel
	// ExecStats reports one query's true execution observations.
	ExecStats = engine.ExecStats
	// Optimizer is the simulated (uniformity+AVI) query optimiser with a
	// what-if interface.
	Optimizer = optimizer.Optimizer
	// Benchmark is a workload suite (schema plus templates).
	Benchmark = workload.Benchmark
)

// Experiment harness types.
type (
	// Experiment is a prepared benchmark environment.
	Experiment = env.Environment
	// ExperimentOptions configures an experiment.
	ExperimentOptions = env.Options
	// RunResult aggregates a run's per-round breakdown.
	RunResult = env.RunResult
	// RoundResult is one round's breakdown.
	RoundResult = env.RoundResult
	// TunerKind selects a tuning strategy.
	TunerKind = env.TunerKind
	// Regime selects a workload regime.
	Regime = env.Regime
	// CellSpec is one independent cell of a parallel sweep.
	CellSpec = harness.CellSpec
	// CellResult pairs a cell with its RunResult or error.
	CellResult = harness.CellResult
	// RunCellsOptions tune a RunCells sweep (parallelism, progress).
	RunCellsOptions = harness.RunCellsOptions
)

// Pluggable tuning-policy layer types.
type (
	// Policy is one tuning strategy, driven round by round by the
	// generic driver (Experiment.RunPolicy).
	Policy = policy.Policy
	// PolicyEnv is the read-only environment view a policy factory may
	// consult (schema, budget, what-if optimiser, regime, rounds).
	PolicyEnv = policy.Env
	// PolicyParams carries per-strategy knobs (the bandit's warm start,
	// the DDQN and random-policy seeds, the PDTool time limit).
	PolicyParams = policy.Params
	// PolicyFactory builds a policy against a prepared environment.
	PolicyFactory = policy.Factory
	// PolicyRecommendation is a policy's per-round decision: the full
	// configuration for the round plus the modelled decision time.
	PolicyRecommendation = policy.Recommendation
	// PolicySnapshotter is the optional checkpointing capability: a
	// policy that can serialise its learned state at a round boundary
	// and later resume byte-identically from it.
	PolicySnapshotter = policy.Snapshotter
	// PolicyForgetter is the optional forgetting capability the serving
	// guardrail uses to discount a quarantined policy's knowledge.
	PolicyForgetter = policy.Forgetter
)

// RegisterPolicy adds a named tuning strategy to the registry; it is then
// runnable by name everywhere a TunerKind is accepted. Registering a name
// twice panics.
func RegisterPolicy(name string, f PolicyFactory) { policy.Register(name, f) }

// PolicyNames lists every registered tuning strategy, sorted.
func PolicyNames() []string { return policy.Names() }

// Tuning strategies.
const (
	NoIndex      = env.NoIndex
	PDTool       = env.PDTool
	MAB          = env.MAB
	DDQN         = env.DDQN
	DDQNSC       = env.DDQNSC
	Advisor      = env.Advisor
	RandomConfig = env.RandomConfig
)

// Workload regimes.
const (
	Static   = env.Static
	Shifting = env.Shifting
	Random   = env.Random
	HTAP     = env.HTAP
)

// NewTuner constructs the MAB tuner for a schema. dbSizeBytes normalises
// the context's relative-size component (use Schema.DataSizeBytes()).
func NewTuner(schema *Schema, dbSizeBytes int64, opts TunerOptions) *Tuner {
	return mab.NewTuner(schema, dbSizeBytes, opts)
}

// NewExperiment prepares a benchmark experiment (data generation, cost
// model, optimiser, workload sequencer).
func NewExperiment(opts ExperimentOptions) (*Experiment, error) {
	return env.New(opts)
}

// RunCells executes a sweep of independent experiment cells across a
// bounded worker pool, returning one CellResult per spec in spec order.
// Results are identical at every parallelism level; a failing cell is
// reported in place without aborting its siblings.
func RunCells(specs []CellSpec, opts RunCellsOptions) []CellResult {
	return harness.RunCells(specs, opts)
}

// CellErrs collects every failed cell's error from a RunCells sweep.
func CellErrs(results []CellResult) []error {
	return harness.CellErrs(results)
}

// Speedup formats the relative improvement of b over a in percent, as
// the paper reports its headline numbers.
func Speedup(a, b float64) string { return harness.Speedup(a, b) }

// BenchmarkByName returns one of the five benchmark suites: "ssb",
// "tpch", "tpch-skew", "tpcds" or "imdb".
func BenchmarkByName(name string) (*Benchmark, error) {
	return workload.ByName(name)
}

// BuildDatabase materialises a schema into a physical database at the
// given scale factor and physical row cap (0 caps at the default 20000).
func BuildDatabase(schema *Schema, scaleFactor float64, maxStoredRows int, seed int64) (*Database, error) {
	return datagen.Build(schema, datagen.Options{
		ScaleFactor:   scaleFactor,
		MaxStoredRows: maxStoredRows,
		Seed:          seed,
	})
}

// NewOptimizer returns the simulated query optimiser over the schema.
func NewOptimizer(schema *Schema, cm *CostModel) *Optimizer {
	return optimizer.New(schema, cm)
}

// DefaultCostModel returns the cost constants used by the experiments.
func DefaultCostModel() *CostModel { return engine.DefaultCostModel() }

// ExecutePlan runs a plan against the database and returns the true
// (simulated) execution observations.
func ExecutePlan(db *Database, plan *engine.Plan, cm *CostModel) (*ExecStats, error) {
	return engine.Execute(db, plan, cm)
}

// Online serving mode types: long-lived checkpointed tuner sessions fed
// statement windows as they arrive, supervised by a runtime safety
// guardrail (see examples/serve and cmd/serve).
type (
	// ServeSession is a long-lived serving-mode tuner session.
	ServeSession = serve.Session
	// ServeOptions configures a serving session.
	ServeOptions = serve.Options
	// ServeGuardrailOptions configures the safety supervisor: a window
	// costing more than BudgetX × its what-if baseline (default 2.0) is
	// a violation, and QuarantineAfter violations in a row revert to the
	// last-known-safe configuration for CooldownWindows windows.
	ServeGuardrailOptions = serve.GuardrailOptions
	// ServeWindowReport is the per-window account Feed returns.
	ServeWindowReport = serve.WindowReport
	// ServeCheckpoint is the versioned on-disk session image.
	ServeCheckpoint = serve.Checkpoint
	// ServeCheckpointError is the typed refusal of a checkpoint that is
	// truncated, fails its checksum, has another format version or does
	// not parse; its Kind says which.
	ServeCheckpointError = serve.CheckpointError
	// ServeStream reads the serving line protocol (one window of
	// template ids per line, instantiated deterministically).
	ServeStream = serve.Stream
)

// ServeCheckpointVersion is the checkpoint format version this build
// writes; it also reads version 1 files, migrating them on load.
const ServeCheckpointVersion = serve.CheckpointVersion

// NewServeSession prepares a serving session; the caller must Close it.
func NewServeSession(opts ServeOptions) (*ServeSession, error) { return serve.New(opts) }

// RestoreServeSession resumes a session from a checkpoint file. The
// restored session's next Feed behaves exactly as the checkpointed
// session's would have. A file it refuses yields a
// *ServeCheckpointError and no session.
func RestoreServeSession(path string) (*ServeSession, error) { return serve.RestoreFile(path) }

// RestoreServeCheckpoint resumes a session from an in-memory checkpoint.
func RestoreServeCheckpoint(ck *ServeCheckpoint) (*ServeSession, error) { return serve.Restore(ck) }

// LoadServeCheckpoint reads and validates a checkpoint file without
// rebuilding the session.
func LoadServeCheckpoint(path string) (*ServeCheckpoint, error) { return serve.LoadCheckpoint(path) }

// NewServeStream wraps a line-protocol reader for a session's benchmark.
func NewServeStream(r io.Reader, s *ServeSession) *ServeStream { return serve.NewStream(r, s) }

// NewIndexConfig returns an empty index configuration.
func NewIndexConfig() *IndexConfig { return index.NewConfig() }

// NewIndex constructs a secondary-index definition.
func NewIndex(table string, key, include []string) *Index {
	return index.New(table, key, include)
}
