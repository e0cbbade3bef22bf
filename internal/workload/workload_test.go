package workload

import (
	"testing"

	"dbabandits/internal/datagen"
	"dbabandits/internal/engine"
	"dbabandits/internal/index"
	"dbabandits/internal/optimizer"
	"dbabandits/internal/storage"
)

func buildBench(t *testing.T, name string) (*Benchmark, *storage.Database) {
	t.Helper()
	b, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	schema := b.NewSchema()
	db, err := datagen.Build(schema, datagen.Options{Seed: 42, ScaleFactor: 10, MaxStoredRows: 5000})
	if err != nil {
		t.Fatalf("building %s: %v", name, err)
	}
	return b, db
}

func TestAllBenchmarksBuildAndValidate(t *testing.T) {
	wantTemplates := map[string]int{
		"ssb": 13, "tpch": 22, "tpch-skew": 22, "tpcds": 99, "imdb": 33,
	}
	for _, name := range AllNames() {
		b, db := buildBench(t, name)
		if got := len(b.Templates); got != wantTemplates[name] {
			t.Fatalf("%s: %d templates, want %d", name, got, wantTemplates[name])
		}
		if err := db.Schema.Validate(); err != nil {
			t.Fatalf("%s schema invalid: %v", name, err)
		}
		ids := map[int]bool{}
		for _, ts := range b.Templates {
			if ids[ts.ID] {
				t.Fatalf("%s: duplicate template id %d", name, ts.ID)
			}
			ids[ts.ID] = true
		}
	}
}

func TestAllTemplatesPlanAndExecute(t *testing.T) {
	cm := engine.DefaultCostModel()
	for _, name := range AllNames() {
		b, db := buildBench(t, name)
		opt := optimizer.New(db.Schema, cm)
		seq := NewStatic(b, db, 7, 2)
		for r := 1; r <= 2; r++ {
			for _, q := range seq.Round(r) {
				plan, err := opt.ChoosePlan(q, index.NewConfig())
				if err != nil {
					t.Fatalf("%s template %d: plan: %v", name, q.TemplateID, err)
				}
				st, err := engine.Execute(db, plan, cm)
				if err != nil {
					t.Fatalf("%s template %d: execute: %v", name, q.TemplateID, err)
				}
				if st.TotalSec <= 0 {
					t.Fatalf("%s template %d: non-positive time", name, q.TemplateID)
				}
			}
		}
	}
}

func TestTemplateInstancesVaryAcrossRounds(t *testing.T) {
	b, db := buildBench(t, "tpch")
	seq := NewStatic(b, db, 11, 25)
	q1 := seq.Round(1)
	q2 := seq.Round(2)
	if len(q1) != len(q2) {
		t.Fatal("round sizes differ")
	}
	varied := false
	for i := range q1 {
		if q1[i].Signature() != q2[i].Signature() {
			t.Fatalf("template %d changed signature across rounds", q1[i].TemplateID)
		}
		for j := range q1[i].Filters {
			if q1[i].Filters[j].Lo != q2[i].Filters[j].Lo {
				varied = true
			}
		}
	}
	if !varied {
		t.Fatal("no predicate constants varied across rounds")
	}
}

func TestStaticSequencerDeterministic(t *testing.T) {
	b, db := buildBench(t, "ssb")
	s1 := NewStatic(b, db, 5, 25)
	s2 := NewStatic(b, db, 5, 25)
	a, c := s1.Round(3), s2.Round(3)
	for i := range a {
		if a[i].SQL() != c[i].SQL() {
			t.Fatalf("nondeterministic round: %s vs %s", a[i].SQL(), c[i].SQL())
		}
	}
}

func TestShiftingSequencerGroups(t *testing.T) {
	b, db := buildBench(t, "tpch")
	s := NewShifting(b, db, 3, 80)
	if s.Rounds() != 80 {
		t.Fatalf("rounds = %d", s.Rounds())
	}
	// Groups must not overlap and together cover all templates.
	seen := map[int]int{}
	for g, group := range s.groups {
		for _, ts := range group {
			if prev, dup := seen[ts.ID]; dup {
				t.Fatalf("template %d in groups %d and %d", ts.ID, prev, g)
			}
			seen[ts.ID] = g
		}
	}
	if len(seen) != len(b.Templates) {
		t.Fatalf("groups cover %d of %d templates", len(seen), len(b.Templates))
	}
	// Consecutive groups produce disjoint template ids.
	ids1 := map[int]bool{}
	for _, q := range s.Round(20) {
		ids1[q.TemplateID] = true
	}
	for _, q := range s.Round(21) {
		if ids1[q.TemplateID] {
			t.Fatalf("template %d appears across a shift boundary", q.TemplateID)
		}
	}
	if s.GroupOf(1) != 0 || s.GroupOf(20) != 0 || s.GroupOf(21) != 1 || s.GroupOf(80) != 3 {
		t.Fatal("GroupOf boundaries wrong")
	}
}

func TestShiftingSequencerRaggedTotals(t *testing.T) {
	b, db := buildBench(t, "tpch")
	cases := []struct {
		total int
		// wantSpans are the per-group round counts of the floor partition.
		wantSpans []int
	}{
		{10, []int{2, 3, 2, 3}},
		{81, []int{20, 20, 20, 21}},
		{7, []int{1, 2, 2, 2}},
	}
	for _, c := range cases {
		s := NewShifting(b, db, 3, c.total)
		if s.Rounds() != c.total {
			t.Fatalf("total %d: Rounds() = %d (ragged totals must not be truncated)", c.total, s.Rounds())
		}
		spans := make([]int, ShiftGroups)
		for r := 1; r <= c.total; r++ {
			g := s.GroupOf(r)
			if g < 0 || g >= ShiftGroups {
				t.Fatalf("total %d round %d: group %d out of range", c.total, r, g)
			}
			spans[g]++
			if r > 1 && g < s.GroupOf(r-1) {
				t.Fatalf("total %d: group regressed at round %d", c.total, r)
			}
		}
		for g, want := range c.wantSpans {
			if spans[g] != want {
				t.Fatalf("total %d: spans = %v, want %v", c.total, spans, c.wantSpans)
			}
		}
		// Every round draws a non-empty workload from its own group only.
		for r := 1; r <= c.total; r++ {
			qs := s.Round(r)
			if len(qs) == 0 {
				t.Fatalf("total %d round %d: empty workload", c.total, r)
			}
		}
	}
}

func TestRandomSequencerRepeatBand(t *testing.T) {
	// The paper reports 45-54% round-to-round repeat under dynamic random
	// workloads. Check the sequencer lands in a sane band around it.
	for _, name := range []string{"tpch", "tpcds"} {
		b, db := buildBench(t, name)
		s := NewRandom(b, db, 13, 25)
		f := RepeatFraction(s)
		if f < 0.3 || f < 0.01 {
			t.Fatalf("%s repeat fraction %v too low", name, f)
		}
		if f > 0.85 {
			t.Fatalf("%s repeat fraction %v too high", name, f)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("mysterybench"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestSkewVariantIsSkewed(t *testing.T) {
	_, uniDB := buildBench(t, "tpch")
	_, skewDB := buildBench(t, "tpch-skew")
	// NDV of o_custkey should collapse under zipfian FK draws.
	uni, _ := uniDB.Schema.MustTable("orders").Column("o_custkey")
	skew, _ := skewDB.Schema.MustTable("orders").Column("o_custkey")
	if skew.Stats.NDV >= uni.Stats.NDV {
		t.Fatalf("skewed NDV %d not below uniform NDV %d", skew.Stats.NDV, uni.Stats.NDV)
	}
}

func TestIMDbFixedSize(t *testing.T) {
	b, _ := buildBench(t, "imdb")
	schema := b.NewSchema()
	db1, _ := datagen.Build(schema, datagen.Options{Seed: 1, ScaleFactor: 1, MaxStoredRows: 2000})
	schema2 := b.NewSchema()
	db2, _ := datagen.Build(schema2, datagen.Options{Seed: 1, ScaleFactor: 100, MaxStoredRows: 2000})
	if db1.Schema.DataSizeBytes() != db2.Schema.DataSizeBytes() {
		t.Fatal("IMDb dataset must not scale with SF (fixed 6GB-equivalent)")
	}
}

func TestIMDbDataSizeRealistic(t *testing.T) {
	_, db := buildBench(t, "imdb")
	gb := float64(db.Schema.DataSizeBytes()) / (1 << 30)
	if gb < 2 || gb > 12 {
		t.Fatalf("IMDb logical size = %.1f GB, want a few GB (paper: 6GB)", gb)
	}
}

func TestTPCHDataSizeScales(t *testing.T) {
	b, _ := buildBench(t, "tpch")
	s1 := b.NewSchema()
	datagen.MustBuild(s1, datagen.Options{Seed: 1, ScaleFactor: 1, MaxStoredRows: 1000})
	s10 := b.NewSchema()
	datagen.MustBuild(s10, datagen.Options{Seed: 1, ScaleFactor: 10, MaxStoredRows: 1000})
	r := float64(s10.DataSizeBytes()) / float64(s1.DataSizeBytes())
	if r < 8 || r > 12 {
		t.Fatalf("SF10/SF1 size ratio = %v, want ~10", r)
	}
	// SF10 should be in the ~10GB ballpark the paper reports.
	gb := float64(s10.DataSizeBytes()) / (1 << 30)
	if gb < 4 || gb > 20 {
		t.Fatalf("TPC-H SF10 = %.1f GB, want roughly 10", gb)
	}
}
