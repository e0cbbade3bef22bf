// Command mabtune runs one benchmark x regime x tuner combination and
// prints the per-round breakdown plus totals.
//
// Usage:
//
//	mabtune -bench tpch-skew -regime static -tuner mab -rounds 25 -sf 10
//	mabtune -bench ssb -tuner noindex,mab,advisor -series
//
// Benchmarks: ssb, tpch, tpch-skew, tpcds, imdb.
// Regimes:    static, shifting, random, htap.
// Tuners:     any registered policy name (comma-separated list allowed;
// all run against the identical database and workload sequence). The
// seed strategies are noindex, pdtool, mab, ddqn and ddqn-sc; additional
// policies registered through the policy registry — such as the online
// what-if advisor, "advisor" — are selectable here with no harness
// changes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dbabandits/internal/cli"
	"dbabandits/internal/env"
	"dbabandits/internal/harness"
	"dbabandits/internal/policy"
)

func main() {
	var (
		bench          = cli.Bench(flag.CommandLine, "tpch")
		sf, rows, seed = cli.Data(flag.CommandLine)
		budget         = cli.Budget(flag.CommandLine)

		regime = flag.String("regime", "static", "workload regime: static|shifting|random|htap")
		tuners = flag.String("tuner", "noindex,pdtool,mab",
			"comma-separated tuners: "+strings.Join(policy.Names(), "|"))
		rounds  = flag.Int("rounds", 0, "rounds (0 = regime default: 25 static/random, 80 shifting)")
		series  = flag.Bool("series", false, "print per-round convergence series")
		csvOut  = flag.Bool("csv", false, "print the series as CSV")
		pdLimit = flag.Float64("pdtool-limit", 0, "PDTool per-invocation time limit (sec, 0=unlimited)")
	)
	flag.Parse()

	opts := env.Options{
		Benchmark:     *bench,
		Regime:        env.Regime(*regime),
		Rounds:        *rounds,
		ScaleFactor:   *sf,
		MaxStoredRows: *rows,
		Seed:          *seed,
		MemoryBudgetX: *budget,
		Params:        policy.Params{PDToolTimeLimitSec: *pdLimit},
	}
	exp, err := env.New(opts)
	if err != nil {
		cli.Fatal("mabtune", err)
	}

	fmt.Printf("benchmark=%s regime=%s sf=%.0f rounds=%d data=%.2fGB budget=%.2fGB\n",
		*bench, *regime, *sf, exp.Seq.Rounds(),
		float64(exp.DB.DataSizeBytes())/(1<<30), float64(exp.Budget)/(1<<30))

	var runs []*env.RunResult
	for _, name := range strings.Split(*tuners, ",") {
		kind := env.TunerKind(strings.TrimSpace(name))
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
