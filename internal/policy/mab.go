package policy

import (
	"encoding/json"
	"fmt"

	"dbabandits/internal/engine"
	"dbabandits/internal/index"
	"dbabandits/internal/mab"
	"dbabandits/internal/query"
)

func init() {
	Register("mab", newMAB)
}

// mabPolicy adapts the C2UCB bandit tuner (the paper's contribution,
// Algorithm 2) to the Policy interface. The tuner already follows the
// observe-recommend-learn round protocol, so the adapter is a thin shim;
// warm starting (the cold-start mitigation of Section VII) happens at
// construction, before the first round.
type mabPolicy struct {
	tuner *mab.Tuner
}

func newMAB(e Env, p Params) (Policy, error) {
	opts := p.MAB
	if opts.MemoryBudgetBytes == 0 {
		opts.MemoryBudgetBytes = e.MemoryBudgetBytes()
	}
	// Update-capable regimes (HTAP) get the journal extension's
	// update-sensitivity context components; analytical regimes keep the
	// exact pre-HTAP context dimensionality.
	if ue, ok := e.(UpdateEnv); ok && ue.HasUpdates() {
		opts.UpdateAwareContext = true
	}
	tuner := mab.NewTuner(e.Catalog(), e.DataSizeBytes(), opts)
	if p.MABWarmStartRounds > 0 {
		if p.MABTransferGain != nil {
			// Cross-tenant transfer: the gain estimates come from a donor
			// tenant's learned posterior instead of this tenant's what-if
			// optimiser (fleet warm start).
			tuner.WarmStart(e.WorkloadAt(1), p.MABTransferGain, p.MABWarmStartRounds)
		} else {
			warmStartMAB(e, tuner, p.MABWarmStartRounds)
		}
	}
	return &mabPolicy{tuner: tuner}, nil
}

// warmStartMAB pre-trains the bandit with what-if estimated gains over
// round 1's workload, exactly the hypothetical-rounds scheme the paper
// sketches: the estimates inherit the optimiser's misestimates, trading
// cold-start cost for potential early bias.
func warmStartMAB(e Env, tuner *mab.Tuner, rounds int) {
	training := e.WorkloadAt(1)
	empty := index.NewConfig()
	tuner.WarmStart(training, func(a *mab.Arm) float64 {
		var gain float64
		trial := index.NewConfig()
		trial.Add(a.Index)
		for _, q := range training {
			if !q.ReferencesTable(a.Table) {
				continue
			}
			base, err1 := e.WhatIf().WhatIfCost(q, empty)
			with, err2 := e.WhatIf().WhatIfCost(q, trial)
			if err1 != nil || err2 != nil {
				continue
			}
			gain += base - with
		}
		if gain < 0 {
			// Feed only non-negative estimated gains: a pessimistic
			// prior would permanently suppress exploration of those
			// arms (see mab warm-start tests).
			gain = 0
		}
		return gain
	}, rounds)
}

func (p *mabPolicy) Name() string { return "mab" }

func (p *mabPolicy) Recommend(round int, lastWorkload []*query.Query) Recommendation {
	rec := p.tuner.Recommend(lastWorkload)
	return Recommendation{Config: rec.Config, RecommendSec: rec.RecommendSec}
}

func (p *mabPolicy) Observe(stats []*engine.ExecStats, creationSec map[string]float64) {
	p.tuner.ObserveExecution(stats, creationSec)
}

// ObserveUpdates implements UpdateAware: the round's update statements
// feed the tuner's churn statistics and the maintenance charges its
// reward shaping.
func (p *mabPolicy) ObserveUpdates(updates []query.Update, perIndexMaintSec map[string]float64) {
	p.tuner.ObserveUpdates(updates, perIndexMaintSec)
}

func (p *mabPolicy) Close() {}

// Snapshot implements Snapshotter: the tuner's round-boundary state
// (ridge factors, query store, configuration, usage and churn
// statistics). The tuner refuses mid-round snapshots, so a torn round
// can never be serialised.
func (p *mabPolicy) Snapshot() (json.RawMessage, error) {
	snap, err := p.tuner.Snapshot()
	if err != nil {
		return nil, err
	}
	return json.Marshal(snap)
}

// Restore implements Snapshotter; the policy must have been constructed
// with the same Env and Params the snapshotted policy ran under.
func (p *mabPolicy) Restore(raw json.RawMessage) error {
	var snap mab.TunerSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("mab policy snapshot: %w", err)
	}
	return p.tuner.Restore(&snap)
}

// Forget implements Forgetter: the guardrail's quarantine can discount
// the bandit's learned knowledge toward the prior, the same mechanism
// workload-shift forgetting uses.
func (p *mabPolicy) Forget(gamma float64) { p.tuner.Bandit().Forget(gamma) }

var (
	_ UpdateAware = (*mabPolicy)(nil)
	_ Snapshotter = (*mabPolicy)(nil)
	_ Forgetter   = (*mabPolicy)(nil)
)
