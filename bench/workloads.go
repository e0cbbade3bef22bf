package main

import (
	"fmt"

	"dbabandits/internal/env"
)

// benchmarkName is the schema every workload runs: TPC-DS, the paper's
// largest, with 99 templates and the widest candidate-index space.
const benchmarkName = "tpcds"

// workload is one set of inputs the benchmark runs. Batch workloads
// drive env.Environment.RunPolicySpan; a workload with window > 0 drives
// a serving session instead. Everything not set here takes the system's
// defaults (scale factor 10, memory budget 1x, plan cache on, serial
// scoring, Sherman–Morrison ridge core, guardrail on).
type workload struct {
	name   string
	policy string     // policy registry name
	regime env.Regime // batch only
	rows   int        // stored rows per table; 0 = the system default (5000)
	rounds int        // rounds or windows in one episode
	window int        // serving: template ids per window; 0 = batch
}

// The reasons for each workload, and the layer split that motivates it,
// are in README.md and BENCHMARK.json. An episode takes 5–7 s on a
// 2-vCPU Xeon VM, so a 28 s run times four or five of them and stops
// within one episode of its budget. It pools the rounds of all its
// episodes, at least 360, so its p95 has well over 10 samples beyond it.
var workloads = []workload{
	{name: "static-tpcds", policy: "mab", regime: env.Static, rows: 5000, rounds: 120},
	{name: "random-tpcds-small", policy: "mab", regime: env.Random, rows: 100, rounds: 1200},
	{name: "htap-tpcds-advisor", policy: "advisor", regime: env.HTAP, rows: 300, rounds: 120},
	{name: "serve-tpcds", policy: "mab", rounds: 300, window: 20},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func (w workload) serving() bool { return w.window > 0 }

// sample names one step of the workload's closed loop.
func (w workload) sample() string {
	if w.serving() {
		return "window"
	}
	return "round"
}

func (w workload) describe() string {
	rows := "default stored rows"
	if w.rows > 0 {
		rows = fmt.Sprintf("%d stored rows", w.rows)
	}
	if w.serving() {
		return fmt.Sprintf("serve %s, policy %s, %s, %d windows of %d template ids", benchmarkName, w.policy, rows, w.rounds, w.window)
	}
	return fmt.Sprintf("%s %s regime, policy %s, %s, %d rounds", benchmarkName, w.regime, w.policy, rows, w.rounds)
}

func (w workload) envOptions(seed int64) env.Options {
	return env.Options{
		Benchmark:     benchmarkName,
		Regime:        w.regime,
		MaxStoredRows: w.rows,
		Rounds:        w.rounds,
		Seed:          seed,
	}
}
