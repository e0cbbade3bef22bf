package env

import (
	"fmt"

	"dbabandits/internal/engine"
	"dbabandits/internal/index"
	"dbabandits/internal/policy"
	"dbabandits/internal/query"
)

// Run constructs the named policy from the registry and drives it with
// RunPolicy. Per-strategy knobs are projected from Opts at call time.
func (e *Environment) Run(kind TunerKind) (*RunResult, error) {
	p, err := policy.New(string(kind), e, e.policyParams())
	if err != nil {
		return nil, err
	}
	res, err := e.RunPolicy(p)
	if err != nil {
		return nil, err
	}
	// The requested registry name wins over Policy.Name(): a policy whose
	// Name diverges from its registration must not mislabel result rows.
	res.Tuner = kind
	return res, nil
}

// NewPolicy constructs the named policy from the registry against this
// environment, with the per-strategy knobs projected from Opts exactly
// as Run projects them. Callers that need the policy instance itself —
// to snapshot its learned state after a span, as the fleet layer does
// for cross-tenant transfer — build it here and own its lifecycle
// (RunPolicySpan + Close); everyone else uses Run.
func (e *Environment) NewPolicy(kind TunerKind) (policy.Policy, error) {
	return policy.New(string(kind), e, e.policyParams())
}

// RunPolicy is the batch driver of Algorithm 2's protocol, shared by
// every tuning strategy: the full round span, with the policy closed
// when the run ends. Close runs exactly once — deferred, so a
// round erroring mid-run still releases the policy before the error
// propagates.
func (e *Environment) RunPolicy(p policy.Policy) (*RunResult, error) {
	defer p.Close()
	return e.RunPolicySpan(p, Span{})
}

// Span bounds the round loop. The zero value means the whole run:
// rounds 1..Seq.Rounds() from an empty configuration.
type Span struct {
	// To is the last round, inclusive; 0 means the sequencer's total.
	To int
}

// RunPolicySpan drives rounds 1..span.To of Algorithm 2's protocol, one
// Step per round over the sequencer's workloads. The per-round
// recommendation / creation / execution / maintenance breakdown is
// exactly what every figure and table of the evaluation reports.
//
// Unlike RunPolicy, the span driver does NOT close the policy: its owner
// may go on to snapshot it (as the fleet layer does for cross-tenant
// transfer), so the owner decides when the run truly ends. A run resumes
// from a checkpoint through Step, over a RoundState holding the
// recorded configuration and last workload, as serving sessions do.
func (e *Environment) RunPolicySpan(p policy.Policy, span Span) (*RunResult, error) {
	to := span.To
	if to <= 0 {
		to = e.Seq.Rounds()
	}
	if to < 1 {
		return nil, fmt.Errorf("env: span 1..%d is empty", to)
	}
	res := &RunResult{
		Benchmark: e.Opts.Benchmark,
		Regime:    e.Opts.Regime,
		Tuner:     TunerKind(p.Name()),
	}
	var st RoundState
	for r := 1; r <= to; r++ {
		rr, _, err := e.Step(p, &st, r, e.Seq.Round(r), nil)
		if err != nil {
			return nil, err
		}
		res.Rounds = append(res.Rounds, rr)
	}
	return res, nil
}

// RoundState is what one round of Algorithm 2 hands the next: the
// configuration in effect and the workload last executed, plus the
// cost-accounting scratch Observe and ObserveUpdates borrow. The scratch
// is cleared and refilled every round instead of reallocated, which is
// safe because policies only borrow it for the call (see policy.Policy).
// A RoundState belongs to one driver, so concurrent drivers over one
// Environment stay independent. The zero value starts a run: an empty
// configuration and no previous workload.
type RoundState struct {
	// Config is the materialised configuration; nil means empty.
	Config *index.Config
	// Last is the previously executed workload, nil before round 1.
	Last []*query.Query

	stats     []*engine.ExecStats
	perCreate map[string]float64
	perMaint  map[string]float64
	ids       []string
}

// Step runs round r of Algorithm 2 over workload wl: it (1) asks the
// policy for a configuration given only the previously executed
// workload, (2) diffs it against the configuration in effect and prices
// the index creations, (3) executes wl under it, (4) prices the index
// maintenance of the round's update statements (HTAP regime only), and
// (5) feeds the true execution statistics, creation costs and — for
// update-aware policies — maintenance charges back to the policy. A
// non-nil pin replaces the recommendation (the serving guardrail's
// quarantine); the policy is still asked and still observes the round.
//
// Step returns the round's breakdown and the execution statistics,
// which are st's scratch: valid until the next Step over st.
func (e *Environment) Step(p policy.Policy, st *RoundState, r int, wl []*query.Query, pin *index.Config) (RoundResult, []*engine.ExecStats, error) {
	if st.Config == nil {
		st.Config = index.NewConfig()
	}
	if st.perCreate == nil {
		st.perCreate, st.perMaint = map[string]float64{}, map[string]float64{}
	}
	rec := p.Recommend(r, st.Last)
	next := rec.Config
	if pin != nil {
		next = pin
	} else if next == nil {
		next = st.Config
	}
	createSec := e.creationCostInto(next.Diff(st.Config), st.perCreate)
	st.Config = next

	exec, stats, err := e.executeWorkload(wl, st.Config, st.stats)
	if err != nil {
		return RoundResult{}, nil, err
	}
	st.stats = stats
	var updates []query.Update
	var maintSec float64
	if e.HasUpdates() {
		updates = e.UpdatesAt(r)
		var perMaint map[string]float64
		if len(updates) > 0 && st.Config.Len() > 0 {
			perMaint = st.perMaint
			maintSec, st.ids = e.maintenanceCostInto(updates, st.Config, perMaint, st.ids)
		}
		// Update-aware policies learn from the statements and the
		// charges before shaping the round's rewards in Observe.
		if ua, ok := p.(policy.UpdateAware); ok {
			ua.ObserveUpdates(updates, perMaint)
		}
	}
	p.Observe(stats, st.perCreate)
	st.Last = wl

	return RoundResult{
		Round:          r,
		RecommendSec:   rec.RecommendSec,
		CreateSec:      createSec,
		ExecSec:        exec,
		MaintenanceSec: maintSec,
		NumUpdates:     len(updates),
		NumIndexes:     st.Config.Len(),
	}, stats, nil
}
