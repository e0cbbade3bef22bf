package policy

import (
	"encoding/json"
	"fmt"

	"dbabandits/internal/engine"
	"dbabandits/internal/index"
	"dbabandits/internal/mab"
	"dbabandits/internal/optimizer"
	"dbabandits/internal/query"
)

func init() {
	Register("advisor", newAdvisor)
}

// advisorPolicy is an online advisor baseline in the style of Schnaitter
// & Polyzotis's semi-automatic index tuning: every round it re-analyses
// the recently observed queries with the optimiser's what-if interface,
// corrects those estimates with the execution feedback it has actually
// observed, and greedily keeps the best configuration under the memory
// budget. An index not yet materialised must overcome its creation cost
// before it is swapped in (the work-function-style hysteresis that gives
// online advisors their stability), while an already materialised index
// only needs to stay beneficial.
//
// It exists to demonstrate the pluggable policy layer — it is registered
// through the registry alone, with zero driver or harness edits — and as
// a what-if-grounded middle point between the offline PDTool (invoked on
// a schedule) and the bandit (which never trusts the what-if estimates).
type advisorPolicy struct {
	opt        *optimizer.Optimizer
	gen        *mab.ArmGenerator
	store      *mab.QueryStore
	budget     int64
	priceIndex func(ix *index.Index) float64

	cfg *index.Config
	// observedGain is the decayed per-index execution gain actually seen,
	// the "semi-automatic" feedback that corrects what-if misestimates.
	observedGain map[string]float64
}

// advisorWhatIfSecPerCall mirrors the PDTool's modelled cost per what-if
// optimiser invocation, so the two advisors' recommendation times are
// directly comparable.
const advisorWhatIfSecPerCall = 0.05

// advisorGainDecay is the per-round decay of observed execution gains.
const advisorGainDecay = 0.5

func newAdvisor(e Env, _ Params) (Policy, error) {
	return &advisorPolicy{
		opt:          e.WhatIf(),
		gen:          mab.NewArmGenerator(e.Catalog()),
		store:        mab.NewQueryStore(),
		budget:       e.MemoryBudgetBytes(),
		priceIndex:   e.IndexCreationSec,
		cfg:          index.NewConfig(),
		observedGain: map[string]float64{},
	}, nil
}

func (p *advisorPolicy) Name() string { return "advisor" }

func (p *advisorPolicy) Recommend(round int, lastWorkload []*query.Query) Recommendation {
	if len(lastWorkload) == 0 {
		// Nothing observed yet: hold the current configuration.
		return Recommendation{Config: p.cfg}
	}
	p.store.Observe(round-1, lastWorkload)
	qois := p.store.QoI(round - 1)
	arms := p.gen.Generate(qois)

	// Estimate each candidate's benefit on the queries of interest via
	// what-if calls, caching the no-index baseline per query. Every
	// attempted optimiser invocation is charged, successful or not, as
	// in the PDTool's modelled timing.
	var calls int
	base := make([]float64, len(qois))
	empty := index.NewConfig()
	for i, q := range qois {
		calls++
		if c, err := p.opt.WhatIfCost(q, empty); err == nil {
			base[i] = c
		} else {
			base[i] = -1
		}
	}
	// One trial configuration serves every arm: swapping the previous
	// arm's index for the next resets the touched tables' memoised
	// signatures, so the plan cache never serves a stale plan.
	scores := make([]float64, len(arms))
	trial := index.NewConfig()
	for i, a := range arms {
		if i > 0 {
			trial.Drop(arms[i-1].ID())
		}
		trial.Add(a.Index)
		var benefit float64
		for j, q := range qois {
			if base[j] < 0 || !q.ReferencesTable(a.Table) {
				continue
			}
			with, err := p.opt.WhatIfCost(q, trial)
			calls++
			if err != nil {
				continue
			}
			benefit += base[j] - with
		}
		benefit += p.observedGain[a.ID()]
		if !p.cfg.Has(a.ID()) {
			// Hysteresis: a new index must pay for its own creation.
			benefit -= p.priceIndex(a.Index)
		}
		scores[i] = benefit
	}

	next := index.NewConfig()
	for _, a := range mab.SelectSuperArm(arms, scores, p.budget) {
		next.Add(a.Index)
	}
	p.cfg = next
	return Recommendation{Config: next, RecommendSec: advisorWhatIfSecPerCall * float64(calls)}
}

func (p *advisorPolicy) Observe(stats []*engine.ExecStats, _ map[string]float64) {
	gains, _ := mab.GainsFromStats(stats)
	for id := range p.observedGain {
		p.observedGain[id] *= advisorGainDecay
		if p.observedGain[id] < 1e-9 {
			delete(p.observedGain, id)
		}
	}
	for id, g := range gains {
		p.observedGain[id] += g
	}
}

func (p *advisorPolicy) Close() {}

// advisorSnapshot is the advisor's serialisable state: the query store,
// the current configuration, and the decayed observed-gain feedback.
type advisorSnapshot struct {
	Store        *mab.QueryStoreSnapshot
	Config       []index.Def        `json:",omitempty"`
	ObservedGain map[string]float64 `json:",omitempty"`
}

// Snapshot implements Snapshotter.
func (p *advisorPolicy) Snapshot() (json.RawMessage, error) {
	gains := make(map[string]float64, len(p.observedGain))
	for k, v := range p.observedGain {
		gains[k] = v
	}
	return json.Marshal(&advisorSnapshot{
		Store:        p.store.Snapshot(),
		Config:       p.cfg.Defs(),
		ObservedGain: gains,
	})
}

// Restore implements Snapshotter.
func (p *advisorPolicy) Restore(raw json.RawMessage) error {
	var snap advisorSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("advisor policy snapshot: %w", err)
	}
	store, err := mab.RestoreQueryStore(snap.Store)
	if err != nil {
		return fmt.Errorf("advisor policy snapshot: %w", err)
	}
	if err := index.ValidDefs(p.opt.Schema, snap.Config); err != nil {
		return fmt.Errorf("advisor policy snapshot: %w", err)
	}
	p.store = store
	p.cfg = index.ConfigFromDefs(snap.Config)
	p.observedGain = map[string]float64{}
	for k, v := range snap.ObservedGain {
		p.observedGain[k] = v
	}
	return nil
}

var _ Snapshotter = (*advisorPolicy)(nil)
