package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []benchmarkMetric `json:"end_to_end"`
	PerLayer  []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct{ Name, Unit string }

// tiny shrinks a workload to a few rounds on little data, keeping what
// kind of workload it is.
func tiny(w workload) workload {
	w.rows = 150
	if w.serving() {
		w.rounds, w.window = 8, 5
	} else {
		w.rounds = 6
	}
	return w
}

// TestSmokeEveryMetricPrinted runs every workload at tiny size, untraced
// and traced, and checks that each prints every metric BENCHMARK.json
// names, with its unit, both as a line and in the final JSON object —
// so the file and the code cannot drift apart — and that its output
// checks pass.
func TestSmokeEveryMetricPrinted(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, code has %v", names, workloadNames())
	}
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// The serving workload keeps its checkpoints under the working
	// directory.
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	o := runOpts{seed: 1, setups: 2}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			var out bytes.Buffer
			if err := run(&out, tiny(w), o, traced, ""); err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.name, traced, err, out.String())
			}
			checkPrinted(t, w.name, out.String(), want)
		}
	}
	if left, _ := os.ReadDir(dir); len(left) > 0 {
		t.Errorf("the runs left %d entries in the working directory", len(left))
	}
}

func checkPrinted(t *testing.T, workload, out string, want []benchmarkMetric) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	units := map[string]string{}
	for _, line := range lines {
		if f := strings.Fields(line); len(f) >= 4 && f[0] == workload {
			units[f[1]] = f[3]
		}
	}
	var last struct {
		Correct   bool
		Attempted int
		Metrics   map[string]struct{ Unit string }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not the JSON result: %v", workload, err)
	}
	if !last.Correct || last.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d", workload, last.Correct, last.Attempted)
	}
	if len(last.Metrics) != len(want) {
		t.Errorf("%s: JSON has %d metrics, BENCHMARK.json lists %d", workload, len(last.Metrics), len(want))
	}
	for _, m := range want {
		if units[m.Name] != m.Unit {
			t.Errorf("%s: printed %s with unit %q, want %q", workload, m.Name, units[m.Name], m.Unit)
		}
		if got := last.Metrics[m.Name].Unit; got != m.Unit {
			t.Errorf("%s: JSON %s has unit %q, want %q", workload, m.Name, got, m.Unit)
		}
	}
}
