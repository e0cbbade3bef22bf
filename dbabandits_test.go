package dbabandits

import (
	"math/rand"
	"testing"
)

func TestPublicAPIExperimentRoundTrip(t *testing.T) {
	exp, err := NewExperiment(ExperimentOptions{
		Benchmark:     "ssb",
		Regime:        Static,
		Rounds:        4,
		MaxStoredRows: 1000,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(MAB)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 4 {
		t.Fatalf("rounds = %d", len(res.Rounds))
	}
	_, _, exec, total := res.Totals()
	if exec <= 0 || total < exec {
		t.Fatalf("exec=%v total=%v", exec, total)
	}
}

func TestPublicAPITunerDirectUse(t *testing.T) {
	bench, err := BenchmarkByName("tpch")
	if err != nil {
		t.Fatal(err)
	}
	schema := bench.NewSchema()
	db, err := BuildDatabase(schema, 1, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	cm := DefaultCostModel()
	opt := NewOptimizer(schema, cm)
	tuner := NewTuner(schema, db.DataSizeBytes(), TunerOptions{
		MemoryBudgetBytes: db.DataSizeBytes(),
	})

	var last []*Query
	for round := 1; round <= 3; round++ {
		rec := tuner.Recommend(last)
		wl := []*Query{bench.Templates[5].Instantiate(nil2rng(round), db, "tpch")}
		var stats []*ExecStats
		for _, q := range wl {
			plan, err := opt.ChoosePlan(q, rec.Config)
			if err != nil {
				t.Fatal(err)
			}
			st, err := ExecutePlan(db, plan, cm)
			if err != nil {
				t.Fatal(err)
			}
			stats = append(stats, st)
		}
		tuner.ObserveExecution(stats, map[string]float64{})
		last = wl
	}
	snap, err := tuner.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Store.Templates) == 0 {
		t.Fatal("query store empty after three rounds")
	}
}

func TestPublicAPIIndexHelpers(t *testing.T) {
	cfg := NewIndexConfig()
	ix := NewIndex("orders", []string{"o_custkey"}, []string{"o_total"})
	if !cfg.Add(ix) || cfg.Len() != 1 {
		t.Fatal("config add failed")
	}
	if ix.ID() != "orders(o_custkey) INCLUDE (o_total)" {
		t.Fatalf("id = %q", ix.ID())
	}
}

// nil2rng builds a deterministic rng for template instantiation in tests.
func nil2rng(round int) *rand.Rand { return rand.New(rand.NewSource(int64(round))) }
