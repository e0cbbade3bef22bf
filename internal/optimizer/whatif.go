package optimizer

import (
	"dbabandits/internal/index"
	"dbabandits/internal/query"
)

// WhatIfCost returns the optimiser's estimated cost of the query under a
// hypothetical configuration — the classic "what-if" interface
// (Chaudhuri & Narasayya, SIGMOD'98) that offline design tools use as
// their sole source of truth. The hypothetical indexes are never
// materialised.
func (o *Optimizer) WhatIfCost(q *query.Query, cfg *index.Config) (float64, error) {
	plan, err := o.ChoosePlan(q, cfg)
	if err != nil {
		return 0, err
	}
	return plan.EstCost, nil
}
