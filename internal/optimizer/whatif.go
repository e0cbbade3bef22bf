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

// WhatIfWorkloadCost sums WhatIfCost over a workload; WhatIfCalls reports
// how many optimiser invocations that took, which the PDTool baseline
// converts into recommendation time.
func (o *Optimizer) WhatIfWorkloadCost(queries []*query.Query, cfg *index.Config) (total float64, calls int, err error) {
	for _, q := range queries {
		c, err := o.WhatIfCost(q, cfg)
		if err != nil {
			return 0, calls, err
		}
		total += c
		calls++
	}
	return total, calls, nil
}
