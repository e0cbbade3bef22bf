package mab

import (
	"math/rand"
	"testing"

	"dbabandits/internal/catalog"
	"dbabandits/internal/datagen"
	"dbabandits/internal/linalg"
	"dbabandits/internal/query"
	"dbabandits/internal/storage"
	"dbabandits/internal/workload"
)

// tpcdsBenchFixture builds the TPC-DS environment the paper's hardest
// arm-count regime runs on: the full snowflake schema (every schema
// column is one context dimension) and per-round workloads that invoke
// all 99 templates, exactly like the static sequencer.
func tpcdsBenchFixture(b testing.TB, rounds int) (*catalog.Schema, *storage.Database, [][]*query.Query) {
	b.Helper()
	bench, err := workload.ByName("tpcds")
	if err != nil {
		b.Fatal(err)
	}
	schema := bench.NewSchema()
	db, err := datagen.Build(schema, datagen.Options{Seed: 1, ScaleFactor: 10, MaxStoredRows: 1500})
	if err != nil {
		b.Fatal(err)
	}
	wls := make([][]*query.Query, rounds)
	for r := range wls {
		rng := rand.New(rand.NewSource(int64(r)*1_000_003 + 17))
		for _, ts := range bench.Templates {
			wls[r] = append(wls[r], ts.Instantiate(rng, db, bench.Name))
		}
	}
	return schema, db, wls
}

// BenchmarkTunerRecommendTPCDS measures the full recommend loop — query
// store fold-in, arm generation, context building, C2UCB scoring, the
// greedy oracle, and the ridge update — at TPC-DS scale (the paper's
// "over 3200 indices" regime is the arm-count stress case). Later rounds
// replay the same templates, so this is exactly the QoI-window repetition
// profile the per-round overhead of Table I is quoted against.
func BenchmarkTunerRecommendTPCDS(b *testing.B) {
	const rounds = 4
	schema, db, wls := tpcdsBenchFixture(b, rounds)
	dbSize := db.DataSizeBytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tuner := NewTuner(schema, dbSize, TunerOptions{MemoryBudgetBytes: dbSize})
		for r := 0; r < rounds; r++ {
			tuner.Recommend(wls[r])
			tuner.ObserveExecution(nil, nil)
		}
	}
}

// BenchmarkTunerRecommendSteadyState measures one warm recommend round:
// the tuner has already seen every template and materialised its memos
// and arena, so each iteration is the round the arena discipline is
// designed for — generation and key lookups all hit, contexts and
// round maps live in recycled scratch. The gap to
// BenchmarkTunerRecommendTPCDS (which rebuilds a tuner per op, paying
// four cold rounds) is the cold-start cost; the allocs/op here is the
// number the benchdiff alloc budget actually guards.
func BenchmarkTunerRecommendSteadyState(b *testing.B) {
	const rounds = 4
	schema, db, wls := tpcdsBenchFixture(b, rounds)
	dbSize := db.DataSizeBytes()
	tuner := NewTuner(schema, dbSize, TunerOptions{MemoryBudgetBytes: dbSize})
	for r := 0; r < rounds; r++ {
		tuner.Recommend(wls[r])
		tuner.ObserveExecution(nil, nil)
	}
	wl := wls[rounds-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tuner.Recommend(wl)
		tuner.ObserveExecution(nil, nil)
	}
}

// tpcdsScoresFixture prepares every TPC-DS candidate arm's context plus a
// warmed bandit (VInv no longer diagonal — the realistic steady-state
// shape for the quadratic form).
func tpcdsScoresFixture(b testing.TB) (*C2UCB, []linalg.SparseVector, int) {
	b.Helper()
	schema, db, wls := tpcdsBenchFixture(b, 1)
	dbSize := db.DataSizeBytes()
	ctxb := NewContextBuilder(schema)
	gen := NewArmGenerator(schema)
	arms := gen.Generate(wls[0])
	predCols := PredicateColumnSet(wls[0])
	ctxs := make([]linalg.SparseVector, len(arms))
	for i, a := range arms {
		ctxs[i] = ctxb.Build(a, ArmInfo{
			PredicateColumns: predCols,
			DatabaseBytes:    dbSize,
		})
	}
	bandit := NewC2UCB(ctxb.Dim(), 0.25)
	bandit.BeginRound()
	for r := 0; r < 4; r++ {
		bandit.Update(ctxs[:8], make([]float64, 8))
	}
	return bandit, ctxs, ctxb.Dim()
}

// BenchmarkScoresTPCDS isolates C2UCB.Scores over every TPC-DS candidate
// arm at the schema's full context dimension — the per-arm UCB width is
// the dominant term of the recommend loop at this arm count. Compare
// against BENCH_baseline.json (captured pre-sparse) for the headline
// speedup, and against BenchmarkScoresDenseTPCDS for the in-tree
// sparse-vs-dense kernel gap on identical inputs.
func BenchmarkScoresTPCDS(b *testing.B) {
	bandit, ctxs, dim := tpcdsScoresFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bandit.Scores(ctxs)
	}
	b.ReportMetric(float64(len(ctxs)), "arms")
	b.ReportMetric(float64(dim), "dim")
}

// BenchmarkScoresBatch measures the Tuner.Recommend-path arm-set
// scoring — C2UCB.Scores over every TPC-DS candidate arm — in the
// steady state Scores actually runs in (theta memoised since the round's
// last observation, widths in one batched pass). Compare against
// BenchmarkScoresTPCDS in BENCH_1cd7608.json (13.8µs, 2 allocs: the
// pre-batch per-arm loop that recomputed theta every call) and the
// 15.4µs sparse-fast-path README headline. The sm sub-benchmark name
// keeps the row comparable with the committed captures.
func BenchmarkScoresBatch(b *testing.B) {
	b.Run("sm", func(b *testing.B) {
		bandit, ctxs, dim := tpcdsScoresFixture(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bandit.Scores(ctxs)
		}
		b.ReportMetric(float64(len(ctxs)), "arms")
		b.ReportMetric(float64(dim), "dim")
	})
}

// BenchmarkScoresSparse times just the sparse scoring kernels (theta
// dot + confidence width) per arm batch, without the Scores slice
// bookkeeping — the purest view of the O(nnz²) quadratic form.
func BenchmarkScoresSparse(b *testing.B) {
	bandit, ctxs, _ := tpcdsScoresFixture(b)
	theta := bandit.state.Theta()
	alpha := DefaultAlpha(1)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, x := range ctxs {
			sink += theta.DotSparse(x) + alpha*bandit.state.ConfidenceWidthSparse(x)
		}
	}
	benchScoreSink = sink
}

// BenchmarkScoresDenseTPCDS scores the identical contexts through the
// dense kernels the recommend loop used before the sparse fast path; the
// ratio to BenchmarkScoresSparse is the kernel-level win.
func BenchmarkScoresDenseTPCDS(b *testing.B) {
	bandit, ctxs, _ := tpcdsScoresFixture(b)
	dense := make([]linalg.Vector, len(ctxs))
	for i, x := range ctxs {
		dense[i] = x.Dense()
	}
	theta := bandit.state.Theta()
	alpha := DefaultAlpha(1)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, x := range dense {
			sink += theta.Dot(x) + alpha*bandit.state.ConfidenceWidth(x)
		}
	}
	benchScoreSink = sink
}

var benchScoreSink float64
