// Command mabtune runs one benchmark x regime x tuner combination and
// prints the per-round breakdown plus totals.
//
// Usage:
//
//	mabtune -bench tpch-skew -regime static -tuner mab -rounds 25 -sf 10
//	mabtune -bench ssb -tuner noindex,mab,advisor -series
//	mabtune -bench tpcds -tuner mab -ridge chol
//
// Benchmarks: ssb, tpch, tpch-skew, tpcds, imdb.
// Regimes:    static, shifting, random, htap.
// Tuners:     any registered policy name (comma-separated list allowed;
// all run against the identical database and workload sequence). The
// seed strategies are noindex, pdtool, mab, ddqn and ddqn-sc; additional
// policies registered through the policy registry — such as the online
// what-if advisor, "advisor" — are selectable here with no harness
// changes.
//
// -ridge selects the MAB's ridge-regression backend: "sm" keeps the
// default Sherman–Morrison explicit inverse, "chol" the factored
// Cholesky core (no inverse maintenance; identical recommendations on
// every pinned workload).
//
// -forget-rank budgets the SM backend's structured low-rank Forget
// instead of the exact O(d³) rebase.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dbabandits/internal/cli"
	"dbabandits/internal/harness"
	"dbabandits/internal/policy"
)

func main() {
	var (
		bench          = cli.Bench(flag.CommandLine, "tpch")
		sf, rows, seed = cli.Data(flag.CommandLine)
		budget         = cli.Budget(flag.CommandLine)
		ridge          = cli.Ridge(flag.CommandLine)
		forgetRank     = cli.ForgetRank(flag.CommandLine)

		regime = flag.String("regime", "static", "workload regime: static|shifting|random|htap")
		tuners = flag.String("tuner", "noindex,pdtool,mab",
			"comma-separated tuners: "+strings.Join(policy.Names(), "|"))
		rounds  = flag.Int("rounds", 0, "rounds (0 = regime default: 25 static/random, 80 shifting)")
		series  = flag.Bool("series", false, "print per-round convergence series")
		csvOut  = flag.Bool("csv", false, "print the series as CSV")
		pdLimit = flag.Float64("pdtool-limit", 0, "PDTool per-invocation time limit (sec, 0=unlimited)")
	)
	flag.Parse()
	if err := cli.CheckRidge(*ridge); err != nil {
		cli.Fatal("mabtune", err)
	}

	opts := harness.Options{
		Benchmark:          *bench,
		Regime:             harness.Regime(*regime),
		Rounds:             *rounds,
		ScaleFactor:        *sf,
		MaxStoredRows:      *rows,
		Seed:               *seed,
		MemoryBudgetX:      *budget,
		PDToolTimeLimitSec: *pdLimit,
	}
	opts.MABOptions.RidgeBackend = *ridge
	opts.MABOptions.ForgetRank = *forgetRank
	exp, err := harness.New(opts)
	if err != nil {
		cli.Fatal("mabtune", err)
	}

	fmt.Printf("benchmark=%s regime=%s sf=%.0f rounds=%d data=%.2fGB budget=%.2fGB\n",
		*bench, *regime, *sf, exp.Seq.Rounds(),
		float64(exp.DB.DataSizeBytes())/(1<<30), float64(exp.Budget)/(1<<30))

	var runs []*harness.RunResult
	for _, name := range strings.Split(*tuners, ",") {
		kind := harness.TunerKind(strings.TrimSpace(name))
		res, err := exp.Run(kind)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mabtune: %s: %v\n", kind, err)
			os.Exit(1)
		}
		runs = append(runs, res)
		rec, create, execT, total := res.Totals()
		maint := ""
		if exp.HasUpdates() {
			maint = fmt.Sprintf("  maintain=%8.1fs", res.MaintenanceTotal())
		}
		fmt.Printf("%-8s  recommend=%8.1fs  create=%8.1fs  execute=%9.1fs%s  total=%9.1fs  final-round-exec=%7.1fs\n",
			kind, rec, create, execT, maint, total, res.FinalRoundExecSec())
	}

	if *csvOut {
		fmt.Print(harness.SeriesCSV(runs))
	} else if *series {
		fmt.Println()
		harness.RenderConvergence(os.Stdout, fmt.Sprintf("%s %s", *bench, *regime), runs)
	}
}
