// bench_test.go hosts one benchmark per paper table and figure plus
// ablation benchmarks of the paper's mechanisms and micro benchmarks of
// the hot paths. The macro benches run shrunken experiments (few rounds,
// small stored row caps) so `go test -bench=.` finishes in minutes;
// `cmd/experiments` runs the full-scale regeneration. Custom metrics
// report the simulated totals the figures plot, so benchmark output
// doubles as a shape check.
package dbabandits

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"dbabandits/internal/engine"
	"dbabandits/internal/env"
	"dbabandits/internal/harness"
	"dbabandits/internal/index"
	"dbabandits/internal/linalg"
	"dbabandits/internal/mab"
	"dbabandits/internal/optimizer"
	"dbabandits/internal/workload"
)

// benchRounds keeps macro benches quick.
const (
	benchRounds      = 6
	benchShiftRounds = 8
	benchStoredRows  = 1500
)

func benchExperiment(b *testing.B, bench string, regime env.Regime, rounds int) *env.Environment {
	b.Helper()
	exp, err := env.New(env.Options{
		Benchmark:     bench,
		Regime:        regime,
		Rounds:        rounds,
		ScaleFactor:   10,
		MaxStoredRows: benchStoredRows,
		Seed:          1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return exp
}

// runPair executes NoIndex/PDTool/MAB and reports their totals as
// metrics.
func runPair(b *testing.B, exp *env.Environment) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		totals := map[env.TunerKind]float64{}
		for _, kind := range []env.TunerKind{env.NoIndex, env.PDTool, env.MAB} {
			res, err := exp.Run(kind)
			if err != nil {
				b.Fatal(err)
			}
			_, _, _, total := res.Totals()
			totals[kind] = total
		}
		b.ReportMetric(totals[env.NoIndex], "noindex-sec")
		b.ReportMetric(totals[env.PDTool], "pdtool-sec")
		b.ReportMetric(totals[env.MAB], "mab-sec")
	}
}

// --- Figures 2 & 3: static workloads ---

func BenchmarkFig2StaticConvergence(b *testing.B) {
	for _, bench := range workload.AllNames() {
		b.Run(bench, func(b *testing.B) {
			exp := benchExperiment(b, bench, env.Static, benchRounds)
			for i := 0; i < b.N; i++ {
				res, err := exp.Run(env.MAB)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.FinalRoundExecSec(), "final-round-sec")
			}
		})
	}
}

func BenchmarkFig3StaticTotals(b *testing.B) {
	for _, bench := range workload.AllNames() {
		b.Run(bench, func(b *testing.B) {
			runPair(b, benchExperiment(b, bench, env.Static, benchRounds))
		})
	}
}

// --- Figures 4 & 5: dynamic shifting workloads ---

func BenchmarkFig4ShiftingConvergence(b *testing.B) {
	for _, bench := range []string{"ssb", "tpch-skew"} {
		b.Run(bench, func(b *testing.B) {
			exp := benchExperiment(b, bench, env.Shifting, benchShiftRounds)
			for i := 0; i < b.N; i++ {
				res, err := exp.Run(env.MAB)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.FinalRoundExecSec(), "final-round-sec")
			}
		})
	}
}

func BenchmarkFig5ShiftingTotals(b *testing.B) {
	for _, bench := range workload.AllNames() {
		b.Run(bench, func(b *testing.B) {
			runPair(b, benchExperiment(b, bench, env.Shifting, benchShiftRounds))
		})
	}
}

// --- Figures 6 & 7: dynamic random workloads ---

func BenchmarkFig6RandomConvergence(b *testing.B) {
	for _, bench := range []string{"tpcds", "imdb"} {
		b.Run(bench, func(b *testing.B) {
			exp := benchExperiment(b, bench, env.Random, benchRounds)
			for i := 0; i < b.N; i++ {
				res, err := exp.Run(env.MAB)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.FinalRoundExecSec(), "final-round-sec")
			}
		})
	}
}

func BenchmarkFig7RandomTotals(b *testing.B) {
	for _, bench := range workload.AllNames() {
		b.Run(bench, func(b *testing.B) {
			runPair(b, benchExperiment(b, bench, env.Random, benchRounds))
		})
	}
}

// --- Table I: time breakdown ---

func BenchmarkTable1Breakdown(b *testing.B) {
	for _, regime := range []env.Regime{env.Static, env.Shifting, env.Random} {
		rounds := benchRounds
		if regime == env.Shifting {
			rounds = benchShiftRounds
		}
		b.Run(string(regime), func(b *testing.B) {
			exp := benchExperiment(b, "tpch-skew", regime, rounds)
			for i := 0; i < b.N; i++ {
				res, err := exp.Run(env.MAB)
				if err != nil {
					b.Fatal(err)
				}
				rec, create, exec, _ := res.Totals()
				b.ReportMetric(rec, "recommend-sec")
				b.ReportMetric(create, "create-sec")
				b.ReportMetric(exec, "execute-sec")
			}
		})
	}
}

// --- Table II: scale factors ---

func BenchmarkTable2ScaleFactors(b *testing.B) {
	for _, sf := range []float64{1, 10, 100} {
		b.Run(fmt.Sprintf("sf%.0f", sf), func(b *testing.B) {
			exp, err := env.New(env.Options{
				Benchmark:     "tpch-skew",
				Regime:        env.Static,
				Rounds:        benchRounds,
				ScaleFactor:   sf,
				MaxStoredRows: benchStoredRows,
				Seed:          1,
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				res, err := exp.Run(env.MAB)
				if err != nil {
					b.Fatal(err)
				}
				_, _, _, total := res.Totals()
				b.ReportMetric(total/60, "mab-min")
			}
		})
	}
}

// --- Figure 8: DDQN vs MAB ---

func BenchmarkFig8RLComparison(b *testing.B) {
	for _, kind := range []env.TunerKind{env.MAB, env.DDQN, env.DDQNSC} {
		b.Run(string(kind), func(b *testing.B) {
			exp := benchExperiment(b, "tpch", env.Static, benchRounds)
			for i := 0; i < b.N; i++ {
				res, err := exp.Run(kind)
				if err != nil {
					b.Fatal(err)
				}
				_, _, _, total := res.Totals()
				b.ReportMetric(total, "total-sec")
			}
		})
	}
}

// --- Ablations (the README's "Ablation ledger" holds the measured grid) ---

// BenchmarkAblationWarmStart compares cold start against what-if
// pre-training (Section VII's cold-start mitigation).
func BenchmarkAblationWarmStart(b *testing.B) {
	for _, warm := range []int{0, 3} {
		name := "cold"
		if warm > 0 {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			exp := benchExperiment(b, "ssb", env.Static, benchRounds)
			exp.Opts.MABWarmStartRounds = warm
			for i := 0; i < b.N; i++ {
				res, err := exp.Run(env.MAB)
				if err != nil {
					b.Fatal(err)
				}
				early := 0.0
				for _, r := range res.Rounds[:3] {
					early += r.TotalSec()
				}
				b.ReportMetric(early, "first3-rounds-sec")
			}
		})
	}
}

// BenchmarkAblationOracleFiltering compares the filtering oracle against
// a naive top-k-by-score selection.
func BenchmarkAblationOracleFiltering(b *testing.B) {
	schema, db := benchArmFixture(b)
	gen := mab.NewArmGenerator(schema)
	bench, _ := workload.ByName("tpch")
	rng := rand.New(rand.NewSource(1))
	var qs []*Query
	for _, ts := range bench.Templates {
		qs = append(qs, ts.Instantiate(rng, db, "tpch"))
	}
	arms := gen.Generate(qs)
	scores := make([]float64, len(arms))
	for i := range scores {
		scores[i] = rng.Float64() * 100
	}
	budget := db.DataSizeBytes()
	b.Run("filtering", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sel := mab.SelectSuperArm(arms, scores, budget)
			b.ReportMetric(float64(len(sel)), "selected")
		}
	})
	b.Run("naive-topk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// top-k by score ignoring subsumption/covering filters
			var total int64
			n := 0
			for j := range arms {
				if scores[j] > 0 && total+arms[j].SizeBytes <= budget {
					total += arms[j].SizeBytes
					n++
				}
			}
			b.ReportMetric(float64(n), "selected")
		}
	})
}

// --- parallel experiment runner ---

// BenchmarkRunCellsStaticSweep measures the full static-regime sweep
// (five benchmarks × NoIndex/PDTool/MAB) through harness.RunCells at
// increasing worker counts. The parallel/1 case is the sequential
// reference; on a 4-core runner the GOMAXPROCS case should show the
// ≥2× wall-clock speedup the parallel runner exists for, with results
// byte-identical at every setting (see TestRunCellsDeterministic).
func BenchmarkRunCellsStaticSweep(b *testing.B) {
	specs := func() []harness.CellSpec {
		var out []harness.CellSpec
		for _, bench := range workload.AllNames() {
			for _, kind := range []env.TunerKind{env.NoIndex, env.PDTool, env.MAB} {
				out = append(out, harness.CellSpec{
					Options: env.Options{
						Benchmark:     bench,
						Regime:        env.Static,
						Rounds:        benchRounds,
						ScaleFactor:   10,
						MaxStoredRows: benchStoredRows,
						Seed:          1,
					},
					Tuner: kind,
				})
			}
		}
		return out
	}
	levels := []int{1, 2, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	for _, par := range levels {
		if seen[par] {
			continue
		}
		seen[par] = true
		b.Run(fmt.Sprintf("parallel-%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results := harness.RunCells(specs(), harness.RunCellsOptions{Parallel: par})
				if errs := harness.CellErrs(results); len(errs) > 0 {
					b.Fatal(errs[0])
				}
			}
		})
	}
}

// --- micro benchmarks of the hot paths ---

func benchArmFixture(b *testing.B) (*Schema, *Database) {
	b.Helper()
	bench, err := workload.ByName("tpch")
	if err != nil {
		b.Fatal(err)
	}
	schema := bench.NewSchema()
	db, err := BuildDatabase(schema, 10, benchStoredRows, 1)
	if err != nil {
		b.Fatal(err)
	}
	return schema, db
}

func BenchmarkC2UCBScores(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	dim := 128
	bandit := mab.NewC2UCB(dim, 0.25)
	bandit.BeginRound()
	var ctxs []linalg.SparseVector
	for k := 0; k < 200; k++ {
		x := linalg.NewVector(dim)
		for i := range x {
			x[i] = rng.Float64()
		}
		ctxs = append(ctxs, linalg.SparseFromDense(x))
	}
	out := make([]float64, len(ctxs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bandit.ScoresInto(ctxs, out)
	}
}

func BenchmarkArmGeneration(b *testing.B) {
	schema, db := benchArmFixture(b)
	gen := mab.NewArmGenerator(schema)
	bench, _ := workload.ByName("tpch")
	rng := rand.New(rand.NewSource(3))
	var qs []*Query
	for _, ts := range bench.Templates {
		qs = append(qs, ts.Instantiate(rng, db, "tpch"))
	}
	// The generator replays its arm set when a call repeats the QoI
	// sequence just before it, which ad-hoc rounds never do (0 of 1200
	// random TPC-DS rounds). Alternating the list with its reverse keeps
	// every op off that replay, so each one times the proto lookups and
	// arm assembly an ad-hoc round pays.
	rev := slices.Clone(qs)
	slices.Reverse(rev)
	lists := [2][]*Query{qs, rev}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Generate(lists[i%2])
	}
}

func BenchmarkQueryExecution(b *testing.B) {
	schema, db := benchArmFixture(b)
	cm := engine.DefaultCostModel()
	opt := optimizer.New(schema, cm)
	bench, _ := workload.ByName("tpch")
	rng := rand.New(rand.NewSource(4))
	q := bench.Templates[2].Instantiate(rng, db, "tpch") // Q3: 3-way join
	cfg := index.NewConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := opt.ChoosePlan(q, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := engine.Execute(db, plan, cm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteWorkloadTPCDS executes one static TPC-DS round (the 99
// template instances over 5000 stored rows) with the plans built before
// the timer, so ns/op and allocs/op are engine.Execute alone.
func BenchmarkExecuteWorkloadTPCDS(b *testing.B) {
	e, err := env.New(env.Options{
		Benchmark:     "tpcds",
		Regime:        env.Static,
		ScaleFactor:   10,
		MaxStoredRows: 5000,
		Seed:          1,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := index.NewConfig()
	var plans []*engine.Plan
	for _, q := range e.Seq.Round(1) {
		plan, err := e.Opt.ChoosePlan(q, cfg)
		if err != nil {
			b.Fatal(err)
		}
		plans = append(plans, plan)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, plan := range plans {
			if _, err := engine.Execute(e.DB, plan, e.CM); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkWhatIfCost(b *testing.B) {
	schema, db := benchArmFixture(b)
	cm := engine.DefaultCostModel()
	opt := optimizer.New(schema, cm)
	bench, _ := workload.ByName("tpch")
	rng := rand.New(rand.NewSource(5))
	q := bench.Templates[4].Instantiate(rng, db, "tpch") // Q5: 6-way join
	cfg := index.NewConfig()
	cfg.Add(index.New("lineitem", []string{"l_shipdate"}, []string{"l_extendedprice", "l_discount"}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.WhatIfCost(q, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- plan & what-if cache (PR 10) ---

// benchPlanFixture builds the pricing fixture the cache benchmarks
// share: TPC-H Q5 (6-way join) plus the full template workload, under a
// configuration with indexes on the hot tables.
func benchPlanFixture(b *testing.B) (*optimizer.Optimizer, *optimizer.Optimizer, *Query, []*Query, *index.Config) {
	b.Helper()
	schema, db := benchArmFixture(b)
	cm := engine.DefaultCostModel()
	bench, _ := workload.ByName("tpch")
	rng := rand.New(rand.NewSource(5))
	q := bench.Templates[4].Instantiate(rng, db, "tpch") // Q5: 6-way join
	var wl []*Query
	for _, ts := range bench.Templates {
		wl = append(wl, ts.Instantiate(rng, db, "tpch"))
	}
	cfg := index.NewConfig()
	cfg.Add(index.New("lineitem", []string{"l_shipdate"}, []string{"l_extendedprice", "l_discount"}))
	cfg.Add(index.New("orders", []string{"o_orderdate"}, nil))
	cfg.Add(index.New("customer", []string{"c_mktsegment"}, nil))
	return optimizer.New(schema, cm), optimizer.NewUncached(schema, cm), q, wl, cfg
}

// BenchmarkChoosePlanCold is the uncached full greedy search — the
// pre-PR-10 cost of every optimiser invocation and the denominator of
// the cache's speedup claim.
func BenchmarkChoosePlanCold(b *testing.B) {
	_, uncached, q, _, cfg := benchPlanFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := uncached.ChoosePlan(q, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChoosePlanWarm re-prices an unchanged configuration: a
// plan-cache fingerprint hit, the path every repeat pricing of a known
// instance takes (about a third of htap-tpcds-advisor's what-if calls).
// Batch rounds bring fresh instances and never hit.
func BenchmarkChoosePlanWarm(b *testing.B) {
	cached, _, q, _, cfg := benchPlanFixture(b)
	if _, err := cached.ChoosePlan(q, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cached.ChoosePlan(q, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWhatIfWorkloadCold prices the full TPC-H template workload
// uncached, per call.
func BenchmarkWhatIfWorkloadCold(b *testing.B) {
	_, uncached, _, wl, cfg := benchPlanFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		priceWorkload(b, uncached, wl, cfg)
	}
}

// BenchmarkWhatIfWorkloadWarm prices the same workload with the cache
// primed: one fingerprint hit per query, the cost of re-pricing known
// instances under a configuration whose relevant indexes are unchanged.
func BenchmarkWhatIfWorkloadWarm(b *testing.B) {
	cached, _, _, wl, cfg := benchPlanFixture(b)
	priceWorkload(b, cached, wl, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		priceWorkload(b, cached, wl, cfg)
	}
}

// priceWorkload prices every query of wl under cfg, one WhatIfCost call
// each.
func priceWorkload(b *testing.B, o *optimizer.Optimizer, wl []*Query, cfg *index.Config) {
	for _, q := range wl {
		if _, err := o.WhatIfCost(q, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChoosePlanMiss plans a fresh TPC-H Q5 instance every
// iteration through the cached optimiser — the path each batch round's
// execute step takes when the sequencer instantiates new queries, where
// the hit ratio is 0. It includes the instance copy and the
// two-generation eviction the stream of fresh instances drives.
func BenchmarkChoosePlanMiss(b *testing.B) {
	cached, _, q, _, cfg := benchPlanFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := *q
		if _, err := cached.ChoosePlan(&fresh, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWhatIfSingleIndexSweep prices one fresh TPC-H Q5 instance
// against every single-index candidate the arm generator proposes for
// it, swapping the candidate in one trial configuration — the advisor
// policy's per-round pattern. Each distinct relevant candidate is a
// plan-cache miss.
func BenchmarkWhatIfSingleIndexSweep(b *testing.B) {
	cached, _, q, _, _ := benchPlanFixture(b)
	arms := mab.NewArmGenerator(cached.Schema).Generate([]*Query{q})
	trial := index.NewConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := *q
		for k, a := range arms {
			if k > 0 {
				trial.Drop(arms[k-1].ID())
			}
			trial.Add(a.Index)
			if _, err := cached.WhatIfCost(&fresh, trial); err != nil {
				b.Fatal(err)
			}
		}
		trial.Drop(arms[len(arms)-1].ID())
	}
	b.ReportMetric(float64(len(arms)), "configs")
}
