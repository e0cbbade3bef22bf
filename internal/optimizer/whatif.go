package optimizer

import (
	"dbabandits/internal/index"
	"dbabandits/internal/query"
)

// WhatIfCost returns the optimiser's estimated cost of the query under a
// hypothetical configuration — the classic "what-if" interface
// (Chaudhuri & Narasayya, SIGMOD'98) that offline design tools use as
// their sole source of truth. The hypothetical indexes are never
// materialised. It returns ChoosePlan(q, cfg).EstCost bit for bit, but
// with the plan cache enabled it builds no plan: it fills only the
// cost of the fingerprint's slot (plancache.go).
func (o *Optimizer) WhatIfCost(q *query.Query, cfg *index.Config) (float64, error) {
	if o.cache != nil {
		slot, err := o.cache.price(o, q, cfg, false)
		return slot.cost, err
	}
	plan, err := o.choosePlanUncached(q, cfg)
	if err != nil {
		return 0, err
	}
	return plan.EstCost, nil
}
