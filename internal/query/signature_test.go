package query_test

import (
	"math/rand"
	"strings"
	"testing"

	"dbabandits/internal/datagen"
	"dbabandits/internal/query"
	"dbabandits/internal/workload"
)

// instances draws one fresh instance of every template of a benchmark
// (seed 1).
func instances(tb testing.TB, name string) []*query.Query {
	tb.Helper()
	bench, err := workload.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	db, err := datagen.Build(bench.NewSchema(), datagen.Options{Seed: 1, ScaleFactor: 10, MaxStoredRows: 300})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	qs := make([]*query.Query, len(bench.Templates))
	for i, ts := range bench.Templates {
		qs[i] = ts.Instantiate(rng, db, bench.Name)
	}
	return qs
}

func TestSignatureAllocsTPCDS(t *testing.T) {
	// A signature is one buffer and one string however many predicates,
	// payload columns and joins the query has.
	qs := instances(t, "tpcds")
	// AllocsPerRun calls f once more than it averages over, and each
	// call must sign a copy whose signature is not memoised yet.
	fresh := make([]query.Query, len(qs)+1)
	for i := range fresh {
		fresh[i] = *qs[i%len(qs)]
	}
	next := 0
	avg := testing.AllocsPerRun(len(qs), func() {
		fresh[next].Signature()
		next++
	})
	if avg > 2 {
		t.Fatalf("Signature of a fresh TPC-DS instance: %.2f allocs, want at most 2", avg)
	}
}

func TestSignatureShapesPerBenchmark(t *testing.T) {
	// The query store keys templates by shape, so templates that share a
	// shape share an entry. No shipped template pair shares everything
	// but its joins: cutting the join section off merges no shapes.
	want := map[string]int{"ssb": 13, "tpch": 22, "tpch-skew": 22, "tpcds": 92, "imdb": 8}
	for _, name := range workload.AllNames() {
		shapes, joinless := map[string]bool{}, map[string]bool{}
		for _, q := range instances(t, name) {
			sig := q.Signature()
			shapes[sig] = true
			joinless[sig[:strings.LastIndexByte(sig, '|')]] = true
		}
		if len(shapes) != want[name] {
			t.Errorf("%s: %d shapes, want %d", name, len(shapes), want[name])
		}
		if len(joinless) != len(shapes) {
			t.Errorf("%s: %d shapes but %d without joins", name, len(shapes), len(joinless))
		}
	}
}

// BenchmarkSignatureTPCDS signs fresh copies of the 99 TPC-DS template
// instances, the query store's first sight of a round's instances.
func BenchmarkSignatureTPCDS(b *testing.B) {
	qs := instances(b, "tpcds")
	fresh := make([]query.Query, len(qs))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i, q := range qs {
			fresh[i] = *q
			fresh[i].Signature()
		}
	}
}
