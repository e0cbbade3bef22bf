// Command fleet runs a multi-tenant tuning fleet: N heterogeneous
// tenant databases (mixed benchmarks, scale factors, and workload
// regimes, cycled by internal/fleet.DefaultFleet), each an independent
// cell-seeded deterministic environment, fanned across a bounded worker
// pool. The report is fleet-shaped: per-tenant totals and regret
// against each tenant's own noindex baseline, plus fleet p50/p95/p99
// over every tenant-round of round cost, maintenance, and regret.
//
// Tenants in the fleet's last quarter are "admitted" late: they
// warm-start their bandit posterior from the most schema-similar
// incumbent tenant (cross-tenant transfer through the snapshot seam)
// and run a cold-start control over the identical environment, so the
// report shows the measured transfer benefit per admitted tenant: the
// control's regret minus the warm run's over the first five rounds.
//
// DefaultFleet gives each tenant its scale factor, so there is no -sf
// flag; -rows and -seed apply to every tenant.
//
// Output is byte-identical at any -parallel setting: seeds derive from
// tenant identity alone and results are collected in spec order.
//
// Usage:
//
//	fleet                        # 8 tenants, one worker per CPU
//	fleet -tenants 16 -rounds 10 # a bigger fleet, longer runs
//	fleet -parallel 1            # sequential reference run
package main

import (
	"flag"
	"fmt"
	"os"

	"dbabandits/internal/cli"
	"dbabandits/internal/env"
	"dbabandits/internal/fleet"
	"dbabandits/internal/harness"
)

var (
	pol                = cli.Policy(flag.CommandLine, "policy", "mab")
	parallel, progress = cli.Parallel(flag.CommandLine)

	tenants = flag.Int("tenants", 8, "fleet size (last quarter admitted late)")
	rounds  = flag.Int("rounds", 5, "tuning rounds per tenant (0 = regime default)")
	rows    = flag.Int("rows", 5000, "max stored (physical) rows per table, every tenant")
	seed    = flag.Int64("seed", 1, "fleet seed every tenant's seed derives from")
)

func main() {
	flag.Parse()

	specs := fleet.DefaultFleet(*tenants, *rounds, *rows)
	opts := fleet.Options{
		BaseSeed: *seed,
		Policy:   env.TunerKind(*pol),
		Parallel: *parallel,
	}
	if *progress {
		opts.Progress = os.Stderr
	}
	res, err := fleet.Run(specs, opts)
	if err != nil {
		cli.Fatal("fleet", err)
	}
	harness.RenderFleet(os.Stdout, "Fleet", res)
	if errs := res.Errs(); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "fleet:", e)
		}
		os.Exit(1)
	}
}
