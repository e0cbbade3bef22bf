// Package policy defines the pluggable tuning-policy layer: the Policy
// interface every tuning strategy implements, the capability view of the
// simulation environment a policy may consult (Env), and a name-keyed
// registry through which strategies are constructed.
//
// The round itself lives in internal/env (Environment.Step, which batch
// runs and serving sessions both drive); this package deliberately knows
// nothing about how rounds are driven.
// A new baseline therefore needs only three things: a type implementing
// Policy, a Factory building it from an Env, and a Register call — no
// harness or driver edits. The seed strategies of the paper's evaluation
// (no-index, MAB, PDTool, DDQN, DDQN-SC) are registered here as adapters,
// alongside an online what-if advisor in the style of Schnaitter &
// Polyzotis's semi-automatic index tuning.
package policy

import (
	"encoding/json"
	"fmt"
	"sort"

	"dbabandits/internal/catalog"
	"dbabandits/internal/engine"
	"dbabandits/internal/index"
	"dbabandits/internal/mab"
	"dbabandits/internal/optimizer"
	"dbabandits/internal/query"
)

// Recommendation is a policy's decision for one round: the index
// configuration the round executes under, plus the modelled time the
// decision took. The driver diffs Config against the previous round's
// configuration to price index creations, so a policy that changes
// nothing simply returns its current configuration again.
type Recommendation struct {
	// Config is the full configuration for the round (not a delta). A
	// nil Config means "keep the previous round's configuration".
	Config *index.Config
	// RecommendSec is the modelled recommendation time for the round.
	RecommendSec float64
}

// Policy is one tuning strategy, driven round by round. The driver calls
// Recommend at the top of round r with the previously executed workload
// (nil in round 1 — policies never see the future), executes the round
// under the recommended configuration, then calls Observe with the true
// per-query execution statistics and the creation seconds actually spent
// per materialised index id. Close releases any resources once the run
// ends.
type Policy interface {
	// Name returns the registry name the policy was constructed under;
	// run results are tagged with it.
	Name() string
	// Recommend returns the configuration for round (1-based).
	// lastWorkload is the workload executed in round-1, nil at round 1.
	Recommend(round int, lastWorkload []*query.Query) Recommendation
	// Observe feeds back the round's true execution: per-query stats and
	// per-index creation seconds (only ids materialised this round).
	//
	// Both arguments are borrowed: env.Step reuses the stats slice and
	// the map across a batch run's rounds and a serving session's
	// windows alike, so a policy that wants to keep either past the
	// round's feedback must copy what it needs (the *ExecStats values
	// themselves are freshly built each round and safe to retain).
	Observe(stats []*engine.ExecStats, creationSec map[string]float64)
	// Close releases policy resources at the end of a run.
	Close()
}

// Env is the read-only view of the prepared simulation environment a
// policy factory (and the policy it builds) may consult. It is
// implemented by *env.Environment; the interface lives here so policies
// never import the driver.
type Env interface {
	// Catalog returns the benchmark schema with statistics.
	Catalog() *catalog.Schema
	// DataSizeBytes is the logical data size (context normalisation).
	DataSizeBytes() int64
	// MemoryBudgetBytes is the secondary-index budget M.
	MemoryBudgetBytes() int64
	// WhatIf returns the simulated optimiser with its what-if interface.
	WhatIf() *optimizer.Optimizer
	// RegimeName names the workload regime ("static", "shifting",
	// "random").
	RegimeName() string
	// TotalRounds is the experiment's round count.
	TotalRounds() int
	// WorkloadAt returns round r's workload (1-based, deterministic).
	// Policies must only consult rounds they have legitimately observed;
	// the warm-started MAB uses round 1 as its hypothetical training set.
	WorkloadAt(r int) []*query.Query
	// IndexCreationSec prices materialising one index.
	IndexCreationSec(ix *index.Index) float64
}

// UpdateAware is an optional Policy extension for regimes whose rounds
// carry update-shaped statements (HTAP). In such regimes the driver calls
// ObserveUpdates once per round — after execution and immediately before
// Observe — with the round's update statements (possibly empty on
// analytical-only rounds) and the per-index maintenance seconds actually
// charged. A policy may fold the charges into its reward shaping and the
// statements into its learned churn statistics. Analytical regimes never
// call it, so implementing the interface cannot perturb analytical runs.
//
// Like Policy.Observe's arguments, perIndexMaintSec is borrowed: the
// driver refills one map every round, so it stays valid only until the
// round's Observe call returns (ObserveUpdates immediately precedes
// Observe, and the bandit holds the map exactly that long before its
// reward shaping consumes it). The updates slice comes from the
// sequencer and is safe to retain.
type UpdateAware interface {
	ObserveUpdates(updates []query.Update, perIndexMaintSec map[string]float64)
}

// Snapshotter is an optional Policy extension for checkpointable
// policies. Snapshot serialises the policy's learned state at a round
// boundary (after Observe has folded in the round's feedback); Restore
// replaces a freshly constructed policy's state with a previously
// serialised one. The contract is byte-identical resumption: a policy
// constructed with the same Env and Params, restored from a snapshot,
// must produce exactly the recommendations the snapshotted policy
// would have produced from that round on. A snapshot can arrive from
// outside the process (a serving checkpoint), so Restore refuses one
// whose index configuration does not fit the schema (index.ValidDefs)
// rather than crash the next round's planning. Policies holding
// mid-round feedback state return an error from Snapshot rather than
// serialise a torn round. Every seed policy implements Snapshotter;
// like UpdateAware, drivers discover the capability by type assertion,
// so external policies without it simply cannot be checkpointed.
type Snapshotter interface {
	Snapshot() (json.RawMessage, error)
	Restore(json.RawMessage) error
}

// Forgetter is an optional Policy extension for policies that can
// discount learned knowledge toward their prior, by factor gamma in
// [0, 1] (the bandit's workload-shift forgetting). The serving mode's
// safety guardrail uses it on quarantine: a policy whose learned state
// caused a cost regression can be partially reset along with the
// configuration revert.
type Forgetter interface {
	Forget(gamma float64)
}

// UpdateEnv is the optional capability view of environments whose
// workload regime can issue update statements. It is implemented by
// *env.Environment; update-aware policy factories type-assert their Env
// to it, so analytical-only Env implementations need no changes.
// Deliberately, the interface only reveals THAT updates exist: the
// statements themselves reach a policy exclusively through
// UpdateAware.ObserveUpdates after each round executes, so no policy
// can peek at future churn and gain oracle knowledge its competitors
// lack.
type UpdateEnv interface {
	// HasUpdates reports whether any round can carry updates.
	HasUpdates() bool
}

// Params carries the per-strategy knobs an experiment may tune. Unset
// fields take each adapter's defaults. The bandit itself takes no
// knobs: its budget and context shape come from the Env.
type Params struct {
	// MABWarmStartRounds pre-trains the bandit with what-if estimated
	// rewards over round 1's workload (Section VII). 0 disables.
	MABWarmStartRounds int
	// MABTransferGain, when non-nil, replaces the what-if gain estimator
	// for the warm-start rounds with an external per-arm estimate —
	// typically a donor tenant's learned posterior projected through
	// mab.TransferBasis (fleet cross-tenant warm start). Only consulted
	// when MABWarmStartRounds > 0.
	MABTransferGain func(*mab.Arm) float64
	// DDQNSeed seeds the DDQN agent (Figure 8's repetitions use distinct
	// seeds).
	DDQNSeed int64
	// RandomSeed seeds the random-configuration control policy.
	RandomSeed int64
	// PDToolTimeLimitSec caps a single PDTool invocation (the paper caps
	// TPC-DS dynamic random at 1 hour). 0 = unlimited.
	PDToolTimeLimitSec float64
}

// Factory builds a policy against a prepared environment.
type Factory func(e Env, p Params) (Policy, error)

var registry = map[string]Factory{}

// Register adds a named strategy to the registry. Registering an already
// registered name panics: silently replacing a seed strategy would
// invalidate every comparison against it.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("policy: Register with empty name or nil factory")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("policy: duplicate registration of %q", name))
	}
	registry[name] = f
}

// New constructs the named policy against the environment.
func New(name string, e Env, p Params) (Policy, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (registered: %v)", name, Names())
	}
	return f(e, p)
}

// Names lists the registered policy names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Registered reports whether name is a known policy.
func Registered(name string) bool {
	_, ok := registry[name]
	return ok
}
