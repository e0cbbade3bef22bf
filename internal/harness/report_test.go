package harness

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dbabandits/internal/env"
)

// fakeRun builds a synthetic one-round RunResult for renderer tests.
func fakeRun(bench string, tuner env.TunerKind, rec, create, exec, maint float64) *env.RunResult {
	return &env.RunResult{
		Benchmark: bench,
		Tuner:     tuner,
		Rounds: []env.RoundResult{{
			Round:          1,
			RecommendSec:   rec,
			CreateSec:      create,
			ExecSec:        exec,
			MaintenanceSec: maint,
			NumIndexes:     1,
		}},
	}
}

// TestTunerColumnsOrdering pins the column derivation of the generalised
// renderers: columns follow first appearance, scanning benchmarks
// alphabetically and each benchmark's runs in recorded (spec) order, with
// later duplicates ignored — so arbitrary registered-policy subsets
// render in the order the sweep ran them.
func TestTunerColumnsOrdering(t *testing.T) {
	cases := []struct {
		name    string
		results map[string][]*env.RunResult
		want    []env.TunerKind
	}{
		{
			name: "seed set keeps historical order",
			results: map[string][]*env.RunResult{
				"ssb": {fakeRun("ssb", env.NoIndex, 0, 0, 1, 0), fakeRun("ssb", env.PDTool, 0, 0, 1, 0), fakeRun("ssb", env.MAB, 0, 0, 1, 0)},
			},
			want: []env.TunerKind{env.NoIndex, env.PDTool, env.MAB},
		},
		{
			name: "htap comparison set in sweep order",
			results: map[string][]*env.RunResult{
				"tpcds": {fakeRun("tpcds", env.NoIndex, 0, 0, 1, 0), fakeRun("tpcds", env.RandomConfig, 0, 0, 1, 0), fakeRun("tpcds", env.PDTool, 0, 0, 1, 0), fakeRun("tpcds", env.Advisor, 0, 0, 1, 0), fakeRun("tpcds", env.MAB, 0, 0, 1, 0)},
			},
			want: []env.TunerKind{env.NoIndex, env.RandomConfig, env.PDTool, env.Advisor, env.MAB},
		},
		{
			name: "benchmarks scanned alphabetically, duplicates ignored",
			results: map[string][]*env.RunResult{
				"zzz": {fakeRun("zzz", env.DDQN, 0, 0, 1, 0), fakeRun("zzz", env.MAB, 0, 0, 1, 0)},
				"aaa": {fakeRun("aaa", env.MAB, 0, 0, 1, 0), fakeRun("aaa", env.Advisor, 0, 0, 1, 0)},
			},
			want: []env.TunerKind{env.MAB, env.Advisor, env.DDQN},
		},
		{
			name: "unregistered future policy appears under its own name",
			results: map[string][]*env.RunResult{
				"ssb": {fakeRun("ssb", env.TunerKind("wfit"), 0, 0, 1, 0), fakeRun("ssb", env.MAB, 0, 0, 1, 0)},
			},
			want: []env.TunerKind{env.TunerKind("wfit"), env.MAB},
		},
	}
	for _, c := range cases {
		if got := TunerColumns(c.results); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: TunerColumns = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestRenderTotalsSeedSetByteIdentical pins RenderTotals for the seed
// NoIndex/PDTool/MAB sweep to the exact pre-generalisation output (the
// renderer used to hardcode these three columns), so Figures 3, 5 and 7
// cannot drift by a byte.
func TestRenderTotalsSeedSetByteIdentical(t *testing.T) {
	results := map[string][]*env.RunResult{
		"ssb":  {fakeRun("ssb", env.NoIndex, 0, 0, 400, 0), fakeRun("ssb", env.PDTool, 10, 20, 300, 0), fakeRun("ssb", env.MAB, 1, 30, 250.25, 0)},
		"tpch": {fakeRun("tpch", env.NoIndex, 0, 0, 900, 0), fakeRun("tpch", env.PDTool, 15, 25, 700, 0), fakeRun("tpch", env.MAB, 2, 35, 600, 0)},
	}
	var sb strings.Builder
	RenderTotals(&sb, "Figure 3 — static totals", results)
	want := "# Figure 3 — static totals — total end-to-end workload time (sec)\n" +
		"workload         NoIndex      PDTool         MAB\n" +
		"ssb                400.0       330.0       281.2\n" +
		"tpch               900.0       740.0       637.0\n"
	if sb.String() != want {
		t.Errorf("seed-set RenderTotals diverged from the pre-generalisation bytes\n got: %q\nwant: %q", sb.String(), want)
	}
}

// TestRenderTotalsArbitrarySubset checks that a non-seed policy subset
// renders one correctly ordered, correctly labelled column per tuner.
func TestRenderTotalsArbitrarySubset(t *testing.T) {
	results := map[string][]*env.RunResult{
		"imdb": {
			fakeRun("imdb", env.RandomConfig, 0, 5, 100, 2),
			fakeRun("imdb", env.Advisor, 3, 4, 80, 1),
			fakeRun("imdb", env.TunerKind("wfit"), 1, 2, 70, 0.5),
		},
	}
	var sb strings.Builder
	RenderTotals(&sb, "subset", results)
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), sb.String())
	}
	if got, want := lines[1], fmt.Sprintf("%-12s%12s%12s%12s", "workload", "Random", "Advisor", "wfit"); got != want {
		t.Errorf("header = %q, want %q", got, want)
	}
	// Totals include maintenance: 107.0, 88.0, 73.5.
	if got, want := lines[2], fmt.Sprintf("%-12s%12.1f%12.1f%12.1f", "imdb", 107.0, 88.0, 73.5); got != want {
		t.Errorf("row = %q, want %q", got, want)
	}
}

// TestRenderBreakdownColumns checks the HTAP breakdown renderer: one row
// per run in run order, display names, and a maintenance column that
// feeds the total.
func TestRenderBreakdownColumns(t *testing.T) {
	runs := []*env.RunResult{
		fakeRun("ssb", env.NoIndex, 0, 0, 400, 0),
		fakeRun("ssb", env.RandomConfig, 0, 50, 350, 25),
		fakeRun("ssb", env.MAB, 2, 30, 250, 10),
	}
	var sb strings.Builder
	RenderBreakdown(&sb, "HTAP — ssb", runs)
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), sb.String())
	}
	if got, want := lines[1], fmt.Sprintf("%-10s%14s%14s%14s%14s%14s",
		"method", "Recommend", "IndexCreate", "Execution", "Maintenance", "Total"); got != want {
		t.Errorf("header = %q, want %q", got, want)
	}
	if got, want := lines[3], fmt.Sprintf("%-10s%14.1f%14.1f%14.1f%14.1f%14.1f",
		"Random", 0.0, 50.0, 350.0, 25.0, 425.0); got != want {
		t.Errorf("random row = %q, want %q", got, want)
	}
}

// TestDisplayNames pins the figure labels of the registered strategies
// and the fallback for future ones.
func TestDisplayNames(t *testing.T) {
	cases := map[env.TunerKind]string{
		env.NoIndex:            "NoIndex",
		env.PDTool:             "PDTool",
		env.MAB:                "MAB",
		env.DDQN:               "DDQN",
		env.DDQNSC:             "DDQN-SC",
		env.Advisor:            "Advisor",
		env.RandomConfig:       "Random",
		env.TunerKind("wfit"):  "wfit",
		env.TunerKind("other"): "other",
	}
	for k, want := range cases {
		if got := DisplayName(k); got != want {
			t.Errorf("DisplayName(%q) = %q, want %q", k, got, want)
		}
	}
}
