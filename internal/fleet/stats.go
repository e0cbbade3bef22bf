package fleet

import (
	"sort"

	"dbabandits/internal/env"
	"dbabandits/internal/stats"
)

// Percentiles is a fleet-level distribution summary: the p50/p95/p99
// of a per-tenant-round metric pooled across every tenant. Tail
// percentiles, not means, are the fleet operator's view — one tenant's
// pathological round hides inside a fleet mean but not inside p99.
type Percentiles struct {
	P50, P95, P99 float64
}

// percentilesOf summarises vals (consumed: sorted in place) with
// stats.Quantile, the harness renderers' quantile.
func percentilesOf(vals []float64) Percentiles {
	if len(vals) == 0 {
		return Percentiles{}
	}
	sort.Float64s(vals)
	return Percentiles{
		P50: stats.Quantile(vals, 0.50),
		P95: stats.Quantile(vals, 0.95),
		P99: stats.Quantile(vals, 0.99),
	}
}

// collect pools one per-round metric over every successful tenant's
// tuned run, in tenant order then round order.
func (r *Result) collect(metric func(tr *TenantResult, i int) float64) []float64 {
	var vals []float64
	for ti := range r.Tenants {
		tr := &r.Tenants[ti]
		if tr.Err != nil || tr.Run == nil {
			continue
		}
		for i := range tr.Run.Rounds {
			vals = append(vals, metric(tr, i))
		}
	}
	return vals
}

// RoundCost summarises the per-round end-to-end cost (recommendation +
// creation + execution + maintenance) across the fleet.
func (r *Result) RoundCost() Percentiles {
	return percentilesOf(r.collect(func(tr *TenantResult, i int) float64 {
		return tr.Run.Rounds[i].TotalSec()
	}))
}

// Maintenance summarises the per-round index-maintenance charge across
// the fleet (zero on analytical tenants, so the fleet p50 is often 0
// while the tail is carried by the HTAP tenants).
func (r *Result) Maintenance() Percentiles {
	return percentilesOf(r.collect(func(tr *TenantResult, i int) float64 {
		return tr.Run.Rounds[i].MaintenanceSec
	}))
}

// Regret summarises the per-round regret against each tenant's own
// noindex baseline: tuned round cost minus the baseline's cost of the
// same round. Negative rounds are the tuner paying for itself;
// positive tails are where creation spikes or mistuned configurations
// exceed doing nothing.
func (r *Result) Regret() Percentiles {
	return percentilesOf(r.collect(func(tr *TenantResult, i int) float64 {
		return regretAt(tr.Run, tr.Baseline, i)
	}))
}

// regretAt is one round's regret-vs-noindex; 0 when the baseline is
// missing or shorter (failed tenants are filtered before this).
func regretAt(run, base *env.RunResult, i int) float64 {
	if base == nil || i >= len(base.Rounds) {
		return run.Rounds[i].TotalSec()
	}
	return run.Rounds[i].TotalSec() - base.Rounds[i].TotalSec()
}

// Errs collects every failed tenant's error, in spec order.
func (r *Result) Errs() []error {
	var errs []error
	for i := range r.Tenants {
		if r.Tenants[i].Err != nil {
			errs = append(errs, r.Tenants[i].Err)
		}
	}
	return errs
}

// EarlyRoundRegret sums the tuned run's first k rounds of
// regret-vs-noindex — the cold-start cost a warm start is supposed to
// reduce. k is clamped to the run length.
func (tr *TenantResult) EarlyRoundRegret(k int) float64 {
	return earlyRegret(tr.Run, tr.Baseline, k)
}

// ControlEarlyRoundRegret is EarlyRoundRegret for the admitted
// tenant's cold-start control run (0 for incumbents, which have none).
func (tr *TenantResult) ControlEarlyRoundRegret(k int) float64 {
	return earlyRegret(tr.Control, tr.Baseline, k)
}

// TransferBenefit is the admitted tenant's early-round improvement
// from warm-starting: control regret minus warm regret over the first
// k rounds. Positive means transfer helped.
func (tr *TenantResult) TransferBenefit(k int) float64 {
	if tr.Control == nil {
		return 0
	}
	return tr.ControlEarlyRoundRegret(k) - tr.EarlyRoundRegret(k)
}

func earlyRegret(run, base *env.RunResult, k int) float64 {
	if run == nil {
		return 0
	}
	if k > len(run.Rounds) {
		k = len(run.Rounds)
	}
	var total float64
	for i := 0; i < k; i++ {
		total += regretAt(run, base, i)
	}
	return total
}
