package env

import (
	"testing"
)

// BenchmarkEnvRoundSteadyState measures one full warm round of the
// environment driver — Recommend, diff + creation pricing, workload
// execution under the plan cache, and Observe — after the bandit and the
// optimiser's caches have both settled. This is the end-to-end number
// the per-layer caches (PR 8 tuner arena, PR 10 plan cache) compose
// into: the steady-state simulated round as the fleet and serving loops
// experience it.
func BenchmarkEnvRoundSteadyState(b *testing.B) {
	e, err := New(Options{
		Benchmark:     "ssb",
		Regime:        Static,
		Rounds:        4,
		ScaleFactor:   10,
		MaxStoredRows: 1500,
		Seed:          1,
	})
	if err != nil {
		b.Fatal(err)
	}
	p, err := e.NewPolicy(MAB)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	// Warm phase: rounds 1..4, so the policy converges and the plan
	// cache holds every (query, fingerprint) the steady state revisits.
	var st RoundState
	step := func(r int) {
		if _, _, err := e.Step(p, &st, r, e.Seq.Round(r), nil); err != nil {
			b.Fatal(err)
		}
	}
	for r := 1; r <= 4; r++ {
		step(r)
	}
	// Steady state: rounds 5..4+N continue over the same RoundState, so
	// each timed round sees the real warm-loop pattern — the policy
	// prices the previous round's already-planned query instances
	// (plan-cache hits) while the fresh round's instances plan cold.
	// Sequencers are pure functions of (seed, round), so rounds past
	// Opts.Rounds are well-defined; ns/op and allocs/op read as
	// per-round costs.
	b.ReportAllocs()
	b.ResetTimer()
	for r := 5; r < 5+b.N; r++ {
		step(r)
	}
}
