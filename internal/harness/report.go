package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"dbabandits/internal/env"
	"dbabandits/internal/stats"
)

// RenderConvergence prints the per-round total-time series of several
// tuners side by side — the data behind the paper's convergence plots
// (Figures 2, 4, 6). Output is aligned columns, one row per round.
func RenderConvergence(w io.Writer, title string, runs []*env.RunResult) {
	fmt.Fprintf(w, "# %s — total time per round (sec)\n", title)
	fmt.Fprintf(w, "%-6s", "round")
	for _, r := range runs {
		fmt.Fprintf(w, "%12s", r.Tuner)
	}
	fmt.Fprintln(w)
	if len(runs) == 0 {
		return
	}
	n := len(runs[0].Rounds)
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "%-6d", i+1)
		for _, r := range runs {
			if i < len(r.Rounds) {
				fmt.Fprintf(w, "%12.2f", r.Rounds[i].TotalSec())
			} else {
				fmt.Fprintf(w, "%12s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// displayNames maps registry names to the figure labels of the paper.
// Unlisted policies fall back to their registry name, so a newly
// registered baseline appears in every figure without renderer edits.
var displayNames = map[env.TunerKind]string{
	env.NoIndex:      "NoIndex",
	env.PDTool:       "PDTool",
	env.MAB:          "MAB",
	env.DDQN:         "DDQN",
	env.DDQNSC:       "DDQN-SC",
	env.Advisor:      "Advisor",
	env.RandomConfig: "Random",
}

// DisplayName returns the figure label of a tuning strategy.
func DisplayName(k env.TunerKind) string {
	if n, ok := displayNames[k]; ok {
		return n
	}
	return string(k)
}

// TunerColumns derives the figure column order from a result set: the
// tuners in first-appearance order, scanning benchmarks alphabetically
// and each benchmark's runs in their recorded order. Renderers therefore
// follow whatever registered-policy subset a sweep ran — the seed
// NoIndex/PDTool/MAB sweeps keep their historical column order, and new
// baselines appear with zero renderer edits.
func TunerColumns(results map[string][]*env.RunResult) []env.TunerKind {
	var names []string
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	var order []env.TunerKind
	seen := map[env.TunerKind]bool{}
	for _, name := range names {
		for _, r := range results[name] {
			if !seen[r.Tuner] {
				seen[r.Tuner] = true
				order = append(order, r.Tuner)
			}
		}
	}
	return order
}

// RenderTotals prints total end-to-end workload times per benchmark and
// tuner — the data behind the total-time bar charts (Figures 3, 5, 7).
// Columns are derived from the runs present (see TunerColumns), one per
// tuner that ran.
func RenderTotals(w io.Writer, title string, results map[string][]*env.RunResult) {
	fmt.Fprintf(w, "# %s — total end-to-end workload time (sec)\n", title)
	cols := TunerColumns(results)
	fmt.Fprintf(w, "%-12s", "workload")
	for _, k := range cols {
		fmt.Fprintf(w, "%12s", DisplayName(k))
	}
	fmt.Fprintln(w)
	var names []string
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		byTuner := map[env.TunerKind]float64{}
		for _, r := range results[name] {
			_, _, _, total := r.Totals()
			byTuner[r.Tuner] = total
		}
		fmt.Fprintf(w, "%-12s", name)
		for _, k := range cols {
			fmt.Fprintf(w, "%12.1f", byTuner[k])
		}
		fmt.Fprintln(w)
	}
}

// RenderBreakdown prints the recommendation / creation / execution /
// maintenance / total breakdown of one benchmark's runs, one row per
// tuner in run order — the HTAP comparison table. Like RenderTotals it
// is generic over whatever registered policies the sweep ran.
func RenderBreakdown(w io.Writer, title string, runs []*env.RunResult) {
	fmt.Fprintf(w, "# %s — time breakdown (sec)\n", title)
	fmt.Fprintf(w, "%-10s%14s%14s%14s%14s%14s\n",
		"method", "Recommend", "IndexCreate", "Execution", "Maintenance", "Total")
	for _, r := range runs {
		rec, create, exec, total := r.Totals()
		fmt.Fprintf(w, "%-10s%14.1f%14.1f%14.1f%14.1f%14.1f\n",
			DisplayName(r.Tuner), rec, create, exec, r.MaintenanceTotal(), total)
	}
}

// RenderTable1 prints the recommendation / creation / execution / total
// breakdown in minutes for every benchmark x regime combination — the
// paper's Table I. Bold markers are replaced by an asterisk on the better
// entry of each PDTool/MAB pair.
func RenderTable1(w io.Writer, results map[env.Regime]map[string][]*env.RunResult) {
	fmt.Fprintln(w, "# Table I — total time breakdown (min); * marks the better of each pair")
	fmt.Fprintf(w, "%-10s%-12s%16s%16s%16s%16s\n",
		"regime", "workload", "Recommendation", "Creation", "Execution", "Total")
	for _, regime := range []env.Regime{env.Static, env.Shifting, env.Random} {
		benches := results[regime]
		var names []string
		for n := range benches {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, name := range names {
			var pd, mab *env.RunResult
			for _, r := range benches[name] {
				switch r.Tuner {
				case env.PDTool:
					pd = r
				case env.MAB:
					mab = r
				}
			}
			if pd == nil || mab == nil {
				continue
			}
			pr, pc, pe, pt := pd.Totals()
			mr, mc, me, mt := mab.Totals()
			fmt.Fprintf(w, "%-10s%-12s%16s%16s%16s%16s\n",
				regime, name,
				pairMin(pr, mr), pairMin(pc, mc), pairMin(pe, me), pairMin(pt, mt))
		}
	}
	fmt.Fprintln(w, "(each cell: PDTool / MAB)")
}

// pairMin formats a PDTool/MAB minute pair, starring the smaller.
func pairMin(pd, mab float64) string {
	pdM, mabM := pd/60, mab/60
	l, r := fmt.Sprintf("%.2f", pdM), fmt.Sprintf("%.2f", mabM)
	if pdM <= mabM {
		l = l + "*"
	} else {
		r = r + "*"
	}
	return l + "/" + r
}

// RenderTable2 prints the static TPC-H / TPC-H Skew scale-factor sweep —
// the paper's Table II (minutes).
func RenderTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "# Table II — static workloads under different database sizes (min)")
	fmt.Fprintf(w, "%-12s%6s%12s%12s\n", "workload", "SF", "PDTool", "MAB")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s%6.0f%12.2f%12.2f\n", r.Benchmark, r.SF, r.PDToolMin, r.MABMin)
	}
}

// Table2Row is one scale-factor measurement.
type Table2Row struct {
	Benchmark string
	SF        float64
	PDToolMin float64
	MABMin    float64
}

// Fig8Stats summarises repeated RL-comparison runs of one method.
type Fig8Stats struct {
	Tuner  env.TunerKind
	Totals []float64 // total workload time per repetition
	// Per-round medians and quartiles across repetitions.
	MedianRounds               []float64
	Q1Rounds                   []float64
	Q3Rounds                   []float64
	RecSec, CreateSec, ExecSec float64 // means across repetitions
}

// SummariseRuns computes Fig8Stats from repeated runs of one tuner.
func SummariseRuns(kind env.TunerKind, runs []*env.RunResult) Fig8Stats {
	st := Fig8Stats{Tuner: kind}
	if len(runs) == 0 {
		return st
	}
	n := len(runs[0].Rounds)
	st.MedianRounds = make([]float64, n)
	st.Q1Rounds = make([]float64, n)
	st.Q3Rounds = make([]float64, n)
	for i := 0; i < n; i++ {
		var vals []float64
		for _, r := range runs {
			if i < len(r.Rounds) {
				vals = append(vals, r.Rounds[i].TotalSec())
			}
		}
		sort.Float64s(vals)
		st.MedianRounds[i] = stats.Quantile(vals, 0.5)
		st.Q1Rounds[i] = stats.Quantile(vals, 0.25)
		st.Q3Rounds[i] = stats.Quantile(vals, 0.75)
	}
	for _, r := range runs {
		rec, create, exec, total := r.Totals()
		st.Totals = append(st.Totals, total)
		st.RecSec += rec / float64(len(runs))
		st.CreateSec += create / float64(len(runs))
		st.ExecSec += exec / float64(len(runs))
	}
	return st
}

// RenderFig8 prints the DDQN-vs-MAB comparison: mean total breakdown bars
// plus the median/IQR convergence series (Figure 8 a-d).
func RenderFig8(w io.Writer, title string, stats []Fig8Stats) {
	fmt.Fprintf(w, "# %s — total workload time breakdown (sec, mean over repetitions)\n", title)
	fmt.Fprintf(w, "%-10s%14s%14s%14s%14s\n", "method", "Recommend", "IndexCreate", "Execution", "Total")
	for _, s := range stats {
		fmt.Fprintf(w, "%-10s%14.1f%14.1f%14.1f%14.1f\n",
			s.Tuner, s.RecSec, s.CreateSec, s.ExecSec, s.RecSec+s.CreateSec+s.ExecSec)
	}
	fmt.Fprintf(w, "\n# %s — convergence (median [Q1, Q3] total sec per round)\n", title)
	fmt.Fprintf(w, "%-6s", "round")
	for _, s := range stats {
		fmt.Fprintf(w, "%26s", s.Tuner)
	}
	fmt.Fprintln(w)
	n := 0
	for _, s := range stats {
		if len(s.MedianRounds) > n {
			n = len(s.MedianRounds)
		}
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "%-6d", i+1)
		for _, s := range stats {
			cell := "-"
			if i < len(s.MedianRounds) {
				cell = fmt.Sprintf("%.1f [%.1f, %.1f]", s.MedianRounds[i], s.Q1Rounds[i], s.Q3Rounds[i])
			}
			fmt.Fprintf(w, "%26s", cell)
		}
		fmt.Fprintln(w)
	}
}

// Speedup formats the relative improvement of b over a in percent, as the
// paper reports ("MAB provides over X% speed-up compared to PDTool").
func Speedup(a, b float64) string {
	if a <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f%%", (a-b)/a*100)
}

// SeriesCSV renders a run's per-round totals as a CSV line block for
// external plotting.
func SeriesCSV(runs []*env.RunResult) string {
	var b strings.Builder
	b.WriteString("round")
	for _, r := range runs {
		fmt.Fprintf(&b, ",%s", r.Tuner)
	}
	b.WriteByte('\n')
	if len(runs) == 0 {
		return b.String()
	}
	for i := range runs[0].Rounds {
		fmt.Fprintf(&b, "%d", i+1)
		for _, r := range runs {
			fmt.Fprintf(&b, ",%.3f", r.Rounds[i].TotalSec())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
