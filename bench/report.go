package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	note       string
}

// result is what one invocation reports: the metrics, plus how many
// rounds or windows the timed loop attempted and how many failed.
// checks lists every output check that did not hold.
type result struct {
	workload  string
	attempted int
	failed    int
	metrics   []metric
	checks    []string
}

func (r *result) add(name, unit string, value float64, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, note: note})
}

func (r *result) failCheck(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return len(r.checks) == 0 && r.failed == 0 }

// print writes one line per metric, then the failed checks, then the
// result as a JSON object on the last line.
func (r *result) print(w io.Writer) error {
	for _, m := range r.metrics {
		line := fmt.Sprintf("%s %s %v %s", r.workload, m.name, m.value, m.unit)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Fprintln(w, line)
	}
	for _, c := range r.checks {
		fmt.Fprintf(w, "%s CHECK FAILED: %s\n", r.workload, c)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
