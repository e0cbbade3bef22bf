// Package fleet runs many heterogeneous tenant databases — mixed
// benchmarks, scale factors, and workload regimes — as one concurrent
// tuning fleet, the production topology the single-tenant experiment
// harness abstracts away. Every tenant is an independent, cell-seeded
// deterministic environment driven by the shared round-loop driver
// (env.RunPolicySpan), fanned across the bounded worker pool of
// internal/runner, so a fleet's results are byte-identical at any
// -parallel setting.
//
// The fleet reports fleet-level figures instead of per-run ones:
// per-tenant totals plus p50/p95/p99 over every tenant-round of round
// cost, index maintenance, and regret against each tenant's own
// noindex baseline.
//
// Cross-tenant transfer: tenants marked Admitted join the fleet after
// the incumbent tenants have trained, and warm-start their C2UCB
// posterior from the most schema-similar incumbent — the incumbent's
// round-boundary snapshot (policy.Snapshotter) is projected through
// mab.TransferBasis into per-arm gain estimates that Tuner.WarmStart
// consumes as hypothetical-round rewards. Every admitted tenant also
// runs a cold-start control over the identical environment, so the
// transfer benefit is measured, not assumed.
package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"dbabandits/internal/catalog"
	"dbabandits/internal/env"
	"dbabandits/internal/mab"
	"dbabandits/internal/policy"
	"dbabandits/internal/runner"
	"dbabandits/internal/workload"
)

// TenantSpec identifies one tenant database of the fleet: its
// benchmark, workload regime and sizing. Tenants are self-contained
// cells — each builds its own database and workload sequence from a
// seed derived from its Key — so the fleet may run them in any order,
// concurrently, without changing any tenant's numbers.
type TenantSpec struct {
	// ID names the tenant within the fleet (unique, non-empty).
	ID        string
	Benchmark string
	Regime    env.Regime
	// ScaleFactor defaults to 10 (env.Options semantics).
	ScaleFactor float64
	// Rounds is the tenant's tuning-round count (0 = regime default).
	Rounds int
	// MaxStoredRows caps physical rows (0 = env default).
	MaxStoredRows int
	// Admitted marks a newly admitted tenant: it joins after the
	// incumbent (non-Admitted) tenants have trained, warm-starts from
	// the most schema-similar incumbent's posterior, and runs a
	// cold-start control for comparison.
	Admitted bool
}

// Key names the tenant cell within the fleet. It is the identity the
// deterministic seed derivation hashes (runner.CellSeed), mirroring
// harness.CellSpec.Key: equal keys and equal base seeds receive
// identical private RNG streams.
func (t TenantSpec) Key() string {
	sf := t.ScaleFactor
	if sf <= 0 {
		sf = 10
	}
	return fmt.Sprintf("fleet/%s/%s/%s/sf%g/r%d", t.ID, t.Benchmark, t.Regime, sf, t.Rounds)
}

// Options tune one fleet run.
type Options struct {
	// BaseSeed is the fleet-wide seed every tenant's private seed is
	// derived from (runner.CellSeed over the tenant Key).
	BaseSeed int64
	// Policy selects the tuning strategy every tenant runs (default
	// mab). Cross-tenant transfer engages only for mab — other policies
	// run the fleet topology without warm starts.
	Policy env.TunerKind
	// Parallel bounds concurrently running tenants; <= 0 means
	// runtime.GOMAXPROCS(0). Results are identical at any setting.
	Parallel int
	// Progress, when non-nil, receives one completion line per finished
	// tenant (completion order, typically os.Stderr).
	Progress io.Writer
}

// transferRounds is the number of hypothetical warm-start rounds an
// admitted tenant pre-trains with donor-estimated gains.
const transferRounds = 3

// TenantResult is one tenant's outcome within a fleet run.
type TenantResult struct {
	Spec TenantSpec
	// Seed is the tenant's derived private seed.
	Seed int64
	// Run is the tenant's tuned run — warm-started from the donor for
	// admitted tenants (unless the policy is not mab or no donor
	// matched).
	Run *env.RunResult
	// Baseline is the tenant's noindex run over the identical
	// environment: the do-nothing reference regret is measured against.
	Baseline *env.RunResult
	// Control is the admitted tenant's cold-start run (no warm start)
	// over the identical environment; nil for incumbent tenants.
	Control *env.RunResult
	// Donor is the incumbent tenant the warm start transferred from
	// ("" when no transfer happened), and Similarity its schema
	// similarity to this tenant.
	Donor      string
	Similarity float64
	// Err reports a failed tenant (the fleet completes regardless);
	// Error carries its message into the marshalled form.
	Err   error  `json:"-"`
	Error string `json:",omitempty"`
}

// Result is a completed fleet run: one TenantResult per spec, in spec
// order regardless of completion order.
type Result struct {
	Tenants []TenantResult
}

// donor is an incumbent tenant's transferable state: its schema and
// its round-boundary tuner snapshot.
type donor struct {
	id     string
	schema *catalog.Schema
	snap   *mab.TunerSnapshot
}

// tenantOut carries a tenant's result plus, for an incumbent whose
// posterior can be transferred, its donor state.
type tenantOut struct {
	tr TenantResult
	d  *donor
}

// Run executes the fleet: incumbent tenants first (each trained to
// completion, their posteriors snapshotted), then admitted tenants
// (each warm-started from its best donor, with a cold-start control).
// Both phases fan across the bounded worker pool; a failing tenant
// reports its error in place without aborting siblings.
func Run(tenants []TenantSpec, opts Options) (*Result, error) {
	if len(tenants) == 0 {
		return nil, errors.New("no tenants")
	}
	seen := map[string]bool{}
	for _, t := range tenants {
		if t.ID == "" {
			return nil, fmt.Errorf("tenant with empty ID (benchmark %s)", t.Benchmark)
		}
		if seen[t.ID] {
			return nil, fmt.Errorf("duplicate tenant ID %q", t.ID)
		}
		seen[t.ID] = true
	}
	if opts.Policy == "" {
		opts.Policy = env.MAB
	}

	var incumbents, admitted []int
	for i, t := range tenants {
		if t.Admitted {
			admitted = append(admitted, i)
		} else {
			incumbents = append(incumbents, i)
		}
	}
	out := &Result{Tenants: make([]TenantResult, len(tenants))}
	donors := runPhase(tenants, incumbents, opts, out.Tenants, func(t TenantSpec) (tenantOut, error) {
		return runIncumbent(t, opts)
	})
	// Admitted tenants each run against the complete donor pool. Donor
	// order is incumbent spec order, so best-donor ties break
	// deterministically.
	runPhase(tenants, admitted, opts, out.Tenants, func(t TenantSpec) (tenantOut, error) {
		return runAdmitted(t, opts, donors)
	})
	return out, nil
}

// runPhase runs the tenants at spec positions idx across the worker
// pool and stores each result at its spec position in out, so the
// fleet's Tenants are in spec order however the phases interleave. It
// returns the donors the phase produced, in spec order (runner.Run
// returns results in input order).
func runPhase(tenants []TenantSpec, idx []int, opts Options, out []TenantResult,
	run func(TenantSpec) (tenantOut, error)) []*donor {
	tasks := make([]runner.Task[tenantOut], len(idx))
	labels := make([]string, len(idx))
	for k, i := range idx {
		spec := tenants[i]
		labels[k] = spec.Key()
		tasks[k] = func() (tenantOut, error) { return run(spec) }
	}
	ropts := runner.Options{Parallel: opts.Parallel}
	if opts.Progress != nil {
		ropts.OnDone = runner.Progress(opts.Progress, labels)
	}
	var donors []*donor
	for k, r := range runner.Run(tasks, ropts) {
		i := idx[k]
		if r.Err != nil {
			out[i] = TenantResult{Spec: tenants[i], Err: r.Err, Error: r.Err.Error()}
			continue
		}
		out[i] = r.Value.tr
		if r.Value.d != nil {
			donors = append(donors, r.Value.d)
		}
	}
	return donors
}

// startTenant derives the tenant's seed, builds its environment and
// runs its noindex baseline over it: the start both phases share.
func startTenant(t TenantSpec, opts Options) (*env.Environment, TenantResult, error) {
	seed := runner.CellSeed(opts.BaseSeed, t.Key())
	e, err := env.New(env.Options{
		Benchmark:     t.Benchmark,
		Regime:        t.Regime,
		ScaleFactor:   t.ScaleFactor,
		MaxStoredRows: t.MaxStoredRows,
		Rounds:        t.Rounds,
		Seed:          seed,
	})
	if err != nil {
		return nil, TenantResult{}, fmt.Errorf("%s: %w", t.Key(), err)
	}
	baseline, err := e.Run(env.NoIndex)
	if err != nil {
		return nil, TenantResult{}, fmt.Errorf("%s: noindex baseline: %w", t.Key(), err)
	}
	return e, TenantResult{Spec: t, Seed: seed, Baseline: baseline}, nil
}

// runIncumbent trains one incumbent tenant end to end: noindex
// baseline, tuned run, and — for the mab policy — a round-boundary
// snapshot of the trained posterior through the policy.Snapshotter
// seam, making the tenant a transfer donor.
func runIncumbent(t TenantSpec, opts Options) (tenantOut, error) {
	e, tr, err := startTenant(t, opts)
	if err != nil {
		return tenantOut{}, err
	}
	p, err := e.NewPolicy(opts.Policy)
	if err != nil {
		return tenantOut{}, fmt.Errorf("%s: %w", t.Key(), err)
	}
	defer p.Close()
	tr.Run, err = e.RunPolicySpan(p, env.Span{})
	if err != nil {
		return tenantOut{}, fmt.Errorf("%s: %w", t.Key(), err)
	}
	tr.Run.Tuner = opts.Policy
	out := tenantOut{tr: tr}
	if opts.Policy != env.MAB {
		return out, nil
	}
	raw, err := p.(policy.Snapshotter).Snapshot()
	if err != nil {
		return tenantOut{}, fmt.Errorf("%s: donor snapshot: %w", t.Key(), err)
	}
	var snap mab.TunerSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return tenantOut{}, fmt.Errorf("%s: donor snapshot decode: %w", t.Key(), err)
	}
	out.d = &donor{id: t.ID, schema: e.Schema, snap: &snap}
	return out, nil
}

// runAdmitted runs one newly admitted tenant: a warm-started run
// transferring from the most schema-similar donor, then a cold-start
// control over the identical environment. Transfer engages only for
// the mab policy with at least one donor of non-zero similarity;
// otherwise the "warm" run is itself cold and Donor stays empty — the
// control still runs, so the output shape is stable.
func runAdmitted(t TenantSpec, opts Options, donors []*donor) (tenantOut, error) {
	e, tr, err := startTenant(t, opts)
	if err != nil {
		return tenantOut{}, err
	}

	// Donor selection: maximum schema similarity, first donor winning
	// ties (donor order is incumbent spec order, so this is
	// deterministic at any parallelism).
	var best *donor
	if opts.Policy == env.MAB {
		for _, d := range donors {
			sim := mab.SchemaSimilarity(d.schema, e.Schema)
			if sim > tr.Similarity {
				tr.Similarity, best = sim, d
			}
		}
	}
	if best != nil {
		basis, err := mab.NewTransferBasis(best.schema, best.snap)
		if err != nil {
			return tenantOut{}, fmt.Errorf("%s: transfer from %s: %w", t.Key(), best.id, err)
		}
		tr.Donor = best.id
		predCols := mab.PredicateColumnSet(e.WorkloadAt(1))
		dbBytes := e.DataSizeBytes()
		e.Opts.MABWarmStartRounds = transferRounds
		e.Opts.MABTransferGain = func(a *mab.Arm) float64 {
			return basis.Gain(a, predCols, dbBytes)
		}
	}
	tr.Run, err = e.Run(opts.Policy)
	if err != nil {
		return tenantOut{}, fmt.Errorf("%s: %w", t.Key(), err)
	}

	// Cold-start control: same environment, no warm start. policyParams
	// is projected from Opts at Run time, so clearing the transfer
	// knobs here is all it takes.
	e.Opts.MABWarmStartRounds = 0
	e.Opts.MABTransferGain = nil
	tr.Control, err = e.Run(opts.Policy)
	if err != nil {
		return tenantOut{}, fmt.Errorf("%s: cold-start control: %w", t.Key(), err)
	}
	return tenantOut{tr: tr}, nil
}

// DefaultFleet builds n heterogeneous tenants cycling through every
// benchmark and regime at two scale factors, the last quarter (at
// least one for n >= 4) admitted late so cross-tenant transfer has
// donors and subjects. The cycle lengths (5 benchmarks, 4 regimes, 2
// scale factors) are coprime enough that small fleets already mix
// schemas, regimes and sizes. n < 1 gives no tenants, which Run
// refuses.
func DefaultFleet(n, rounds, maxStoredRows int) []TenantSpec {
	benches := workload.AllNames()
	regimes := []env.Regime{env.Static, env.Shifting, env.Random, env.HTAP}
	out := make([]TenantSpec, max(n, 0))
	for i := range out {
		bench := benches[i%len(benches)]
		regime := regimes[i%len(regimes)]
		sf := 10.0
		if i%2 == 1 {
			sf = 1
		}
		out[i] = TenantSpec{
			ID:            fmt.Sprintf("t%02d-%s-%s", i, bench, regime),
			Benchmark:     bench,
			Regime:        regime,
			ScaleFactor:   sf,
			Rounds:        rounds,
			MaxStoredRows: maxStoredRows,
			Admitted:      n >= 4 && i >= n-n/4,
		}
	}
	return out
}
