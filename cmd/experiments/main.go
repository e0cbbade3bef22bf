// Command experiments regenerates every table and figure of the paper's
// evaluation section (Figures 2-8, Tables I-II) against the simulated
// substrate. Absolute times are simulated seconds, not the paper's
// testbed wall-clock; the comparative shapes are what reproduce.
//
// Every sweep fans its independent experiment cells (benchmark × regime
// × tuner × repetition) across a bounded worker pool. Output is
// byte-identical at any -parallel setting: each cell derives its private
// RNG seeds from the cell's identity alone, and results are collected in
// spec order regardless of completion order. One failed cell does not
// abort the sweep; all cell errors are reported at the end. An unknown
// or empty -exp name, or -reps below 1, exits 1 before anything runs.
//
// Usage:
//
//	experiments -exp all             # everything, one worker per CPU
//	experiments -exp fig2,fig3       # static convergence + totals
//	experiments -exp table1          # time breakdown
//	experiments -exp fig8 -reps 10   # RL comparison, 10 repetitions
//	experiments -exp htap            # HTAP regime, all online baselines
//	experiments -exp all -parallel 1 # sequential reference run
//	experiments -exp all -progress   # per-cell completion lines on stderr
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"dbabandits/internal/cli"
	"dbabandits/internal/env"
	"dbabandits/internal/harness"
	"dbabandits/internal/workload"
)

var (
	sf, rows, seed     = cli.Data(flag.CommandLine)
	parallel, progress = cli.Parallel(flag.CommandLine)

	reps  = flag.Int("reps", 3, "repetitions for the RL comparison (paper: 10)")
	quick = flag.Bool("quick", false, "shrink rounds for a fast smoke run")
)

var benches = workload.AllNames()

// expNames are the valid -exp names.
var expNames = []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "table1", "table2", "fig8", "htap", "all"}

func main() {
	exps := flag.String("exp", "all", "comma-separated: "+strings.Join(expNames, ","))
	flag.Parse()

	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		e = strings.TrimSpace(e)
		if !slices.Contains(expNames, e) {
			cli.Fatal("experiments", fmt.Errorf("unknown -exp %q (valid: %s)", e, strings.Join(expNames, ", ")))
		}
		want[e] = true
	}
	if *reps < 1 {
		cli.Fatal("experiments", fmt.Errorf("-reps must be at least 1, got %d", *reps))
	}
	all := want["all"]

	// Figures 2-7 and Table I share their runs: collect the needed
	// regimes and fan every cell out in a single sweep.
	var regimes []env.Regime
	if all || want["fig2"] || want["fig3"] || want["table1"] {
		regimes = append(regimes, env.Static)
	}
	if all || want["fig4"] || want["fig5"] || want["table1"] {
		regimes = append(regimes, env.Shifting)
	}
	if all || want["fig6"] || want["fig7"] || want["table1"] {
		regimes = append(regimes, env.Random)
	}
	byRegime := runRegimes(regimes)
	staticRuns := byRegime[env.Static]
	shiftRuns := byRegime[env.Shifting]
	randomRuns := byRegime[env.Random]

	if all || want["fig2"] {
		renderConvergenceSet("Figure 2 — static convergence", staticRuns)
	}
	if all || want["fig3"] {
		harness.RenderTotals(os.Stdout, "Figure 3 — static totals", staticRuns)
		renderSpeedups(staticRuns)
	}
	if all || want["fig4"] {
		renderConvergenceSet("Figure 4 — dynamic shifting convergence", shiftRuns)
	}
	if all || want["fig5"] {
		harness.RenderTotals(os.Stdout, "Figure 5 — dynamic shifting totals", shiftRuns)
		renderSpeedups(shiftRuns)
	}
	if all || want["fig6"] {
		renderConvergenceSet("Figure 6 — dynamic random convergence", randomRuns)
	}
	if all || want["fig7"] {
		harness.RenderTotals(os.Stdout, "Figure 7 — dynamic random totals", randomRuns)
		renderSpeedups(randomRuns)
	}
	if all || want["table1"] {
		harness.RenderTable1(os.Stdout, map[env.Regime]map[string][]*env.RunResult{
			env.Static:   staticRuns,
			env.Shifting: shiftRuns,
			env.Random:   randomRuns,
		})
		fmt.Println()
	}
	if all || want["table2"] {
		table2()
	}
	if all || want["fig8"] {
		fig8()
	}
	if all || want["htap"] {
		htapFig()
	}
}

// rounds returns the regime's round count, shrunk in quick mode.
func rounds(regime env.Regime) int {
	if *quick {
		if regime == env.Shifting {
			return 8
		}
		return 5
	}
	if regime == env.Shifting {
		return 80
	}
	return 25
}

// sweepOptions are the RunCells knobs shared by every sweep.
func sweepOptions() harness.RunCellsOptions {
	opts := harness.RunCellsOptions{Parallel: *parallel}
	if *progress {
		opts.Progress = os.Stderr
	}
	return opts
}

// runCells fans the specs across the worker pool and fails the process
// only after the whole sweep has finished, reporting every cell error.
func runCells(specs []harness.CellSpec) []harness.CellResult {
	results := harness.RunCells(specs, sweepOptions())
	if errs := harness.CellErrs(results); len(errs) > 0 {
		for _, err := range errs {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		}
		os.Exit(1)
	}
	return results
}

// cellSpec builds the sweep cell for one benchmark/regime/tuner point.
func cellSpec(bench string, regime env.Regime, kind env.TunerKind) harness.CellSpec {
	opts := env.Options{
		Benchmark:     bench,
		Regime:        regime,
		Rounds:        rounds(regime),
		ScaleFactor:   *sf,
		MaxStoredRows: *rows,
		Seed:          *seed,
	}
	if bench == "tpcds" && regime == env.Random {
		// The paper caps PDTool at 1 hour per invocation here.
		opts.PDToolTimeLimitSec = 3600
	}
	return harness.CellSpec{Options: opts, Tuner: kind}
}

// runRegimes executes NoIndex/PDTool/MAB on all five benchmarks for
// every requested regime as one parallel sweep, then regroups the
// results per regime and benchmark in spec order.
func runRegimes(regimes []env.Regime) map[env.Regime]map[string][]*env.RunResult {
	var specs []harness.CellSpec
	for _, regime := range regimes {
		for _, bench := range benches {
			for _, kind := range []env.TunerKind{env.NoIndex, env.PDTool, env.MAB} {
				specs = append(specs, cellSpec(bench, regime, kind))
			}
		}
	}
	results := runCells(specs)

	out := map[env.Regime]map[string][]*env.RunResult{}
	for _, r := range results {
		regime, bench := r.Spec.Regime, r.Spec.Benchmark
		if out[regime] == nil {
			out[regime] = map[string][]*env.RunResult{}
		}
		out[regime][bench] = append(out[regime][bench], r.Res)
	}
	return out
}

func renderConvergenceSet(title string, runs map[string][]*env.RunResult) {
	for _, bench := range benches {
		harness.RenderConvergence(os.Stdout, fmt.Sprintf("%s — %s", title, bench), runs[bench])
		fmt.Println()
	}
}

// renderSpeedups prints MAB's relative improvement over PDTool per
// benchmark, the headline numbers of the paper's text.
func renderSpeedups(runs map[string][]*env.RunResult) {
	fmt.Println("# MAB speed-up vs PDTool (total end-to-end time)")
	for _, bench := range benches {
		var pd, mab float64
		for _, r := range runs[bench] {
			_, _, _, total := r.Totals()
			switch r.Tuner {
			case env.PDTool:
				pd = total
			case env.MAB:
				mab = total
			}
		}
		fmt.Printf("  %-10s %s\n", bench, harness.Speedup(pd, mab))
	}
	fmt.Println()
}

func table2() {
	sfs := []float64{1, 10, 100}
	if *quick {
		sfs = []float64{1, 10}
	}
	var specs []harness.CellSpec
	for _, bench := range []string{"tpch", "tpch-skew"} {
		for _, factor := range sfs {
			for _, kind := range []env.TunerKind{env.PDTool, env.MAB} {
				opts := env.Options{
					Benchmark:     bench,
					Regime:        env.Static,
					Rounds:        rounds(env.Static),
					ScaleFactor:   factor,
					MaxStoredRows: *rows,
					Seed:          *seed,
				}
				specs = append(specs, harness.CellSpec{Options: opts, Tuner: kind})
			}
		}
	}
	results := runCells(specs)

	// Consecutive spec pairs (PDTool, MAB) share one table row.
	var rowsOut []harness.Table2Row
	for i := 0; i < len(results); i += 2 {
		pd, mab := results[i], results[i+1]
		_, _, _, pdTotal := pd.Res.Totals()
		_, _, _, mabTotal := mab.Res.Totals()
		rowsOut = append(rowsOut, harness.Table2Row{
			Benchmark: pd.Spec.Benchmark,
			SF:        pd.Spec.ScaleFactor,
			PDToolMin: pdTotal / 60,
			MABMin:    mabTotal / 60,
		})
	}
	harness.RenderTable2(os.Stdout, rowsOut)
	fmt.Println()
}

// The HTAP comparison sweeps every policy of interest — including the
// random sanity control — over the hybrid regime. The list is data, not
// renderer structure: RenderConvergence/RenderBreakdown/RenderTotals
// derive their columns and rows from the runs, so adding a registered
// policy here is the only edit a new baseline needs.
var htapTuners = []env.TunerKind{
	env.NoIndex, env.RandomConfig, env.PDTool, env.Advisor, env.MAB,
}

var htapBenches = []string{"ssb", "tpcds"}

// htapFig renders the HTAP-regime comparison: per-round convergence and
// the recommend/create/execute/maintain breakdown per benchmark, plus
// the cross-benchmark totals. Update-heavy rounds interleave with the
// analytical ones, and every policy's total is charged the index
// maintenance its configuration incurs.
func htapFig() {
	var specs []harness.CellSpec
	for _, bench := range htapBenches {
		for _, kind := range htapTuners {
			specs = append(specs, cellSpec(bench, env.HTAP, kind))
		}
	}
	results := runCells(specs)

	byBench := map[string][]*env.RunResult{}
	for _, r := range results {
		byBench[r.Spec.Benchmark] = append(byBench[r.Spec.Benchmark], r.Res)
	}
	for _, bench := range htapBenches {
		harness.RenderConvergence(os.Stdout,
			fmt.Sprintf("HTAP — %s convergence (update-heavy rounds interleaved)", bench), byBench[bench])
		fmt.Println()
		harness.RenderBreakdown(os.Stdout, fmt.Sprintf("HTAP — %s", bench), byBench[bench])
		fmt.Println()
	}
	harness.RenderTotals(os.Stdout, "HTAP", byBench)
	fmt.Println()
}

func fig8() {
	fig8Rounds := 100
	if *quick {
		fig8Rounds = 10
	}
	kinds := []env.TunerKind{env.PDTool, env.MAB, env.DDQN, env.DDQNSC}
	var specs []harness.CellSpec
	for _, bench := range []string{"tpch", "tpch-skew"} {
		for _, kind := range kinds {
			n := *reps
			if kind == env.PDTool || kind == env.MAB {
				// Deterministic methods need no repetition (the paper
				// highlights exactly this stability).
				n = 1
			}
			for rep := 0; rep < n; rep++ {
				opts := env.Options{
					Benchmark:     bench,
					Regime:        env.Static,
					Rounds:        fig8Rounds,
					ScaleFactor:   *sf,
					MaxStoredRows: *rows,
					Seed:          *seed,
				}
				specs = append(specs, harness.CellSpec{
					Options: opts,
					Tuner:   kind,
					// Rep keys the cell's derived DDQNSeed, so every
					// repetition is a distinct deterministic agent.
					Rep: rep,
				})
			}
		}
	}
	results := runCells(specs)

	byBench := map[string]map[env.TunerKind][]*env.RunResult{}
	for _, r := range results {
		if byBench[r.Spec.Benchmark] == nil {
			byBench[r.Spec.Benchmark] = map[env.TunerKind][]*env.RunResult{}
		}
		byBench[r.Spec.Benchmark][r.Spec.Tuner] = append(byBench[r.Spec.Benchmark][r.Spec.Tuner], r.Res)
	}
	for _, bench := range []string{"tpch", "tpch-skew"} {
		var stats []harness.Fig8Stats
		for _, kind := range kinds {
			stats = append(stats, harness.SummariseRuns(kind, byBench[bench][kind]))
		}
		harness.RenderFig8(os.Stdout, fmt.Sprintf("Figure 8 — %s (static, %d rounds)", bench, fig8Rounds), stats)
		fmt.Println()
	}
}
