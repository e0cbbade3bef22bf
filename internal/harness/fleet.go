package harness

import (
	"fmt"
	"io"

	"dbabandits/internal/fleet"
)

// benefitRounds is the early-round window RenderFleet sums the transfer
// benefit over.
const benefitRounds = 5

// RenderFleet prints a fleet run: one row per tenant (totals, whole-run
// regret against the tenant's own noindex baseline, and — for admitted
// tenants — the transfer donor, schema similarity, and the early-round
// transfer benefit over the cold-start control), followed by the
// fleet-level p50/p95/p99 block over every tenant-round. Output is
// deterministic: spec order, fixed formats.
func RenderFleet(w io.Writer, title string, res *fleet.Result) {
	admitted := 0
	for i := range res.Tenants {
		if res.Tenants[i].Spec.Admitted {
			admitted++
		}
	}
	fmt.Fprintf(w, "# %s — fleet of %d tenants (%d admitted)\n", title, len(res.Tenants), admitted)
	fmt.Fprintf(w, "%-26s%-11s%-10s%5s%7s%12s%12s  %-26s%6s%10s\n",
		"tenant", "bench", "regime", "sf", "rounds", "total", "regret", "donor", "sim", "benefit")
	for i := range res.Tenants {
		tr := &res.Tenants[i]
		s := tr.Spec
		sf := s.ScaleFactor
		if sf <= 0 {
			sf = 10
		}
		if tr.Err != nil {
			fmt.Fprintf(w, "%-26s%-11s%-10s%5g  ERROR %v\n", s.ID, s.Benchmark, s.Regime, sf, tr.Err)
			continue
		}
		_, _, _, total := tr.Run.Totals()
		regret := tr.EarlyRoundRegret(len(tr.Run.Rounds))
		donor, sim, benefit := "-", "-", "-"
		if tr.Donor != "" {
			donor = tr.Donor
			sim = fmt.Sprintf("%.2f", tr.Similarity)
			benefit = fmt.Sprintf("%.2f", tr.TransferBenefit(benefitRounds))
		}
		fmt.Fprintf(w, "%-26s%-11s%-10s%5g%7d%12.2f%12.2f  %-26s%6s%10s\n",
			s.ID, s.Benchmark, s.Regime, sf, len(tr.Run.Rounds), total, regret, donor, sim, benefit)
	}
	fmt.Fprintf(w, "\n# fleet percentiles — per tenant-round (sec)\n")
	fmt.Fprintf(w, "%-14s%10s%10s%10s\n", "metric", "p50", "p95", "p99")
	renderPct := func(name string, p fleet.Percentiles) {
		fmt.Fprintf(w, "%-14s%10.3f%10.3f%10.3f\n", name, p.P50, p.P95, p.P99)
	}
	renderPct("round cost", res.RoundCost())
	renderPct("maintenance", res.Maintenance())
	renderPct("regret", res.Regret())
}
