package pdtool

import (
	"testing"

	"dbabandits/internal/engine"
	"dbabandits/internal/index"
	"dbabandits/internal/optimizer"
	"dbabandits/internal/query"
	"dbabandits/internal/testdb"
)

func trainingWorkload() []*query.Query {
	return []*query.Query{
		{
			TemplateID: 1,
			Tables:     []string{"orders"},
			Filters: []query.Predicate{
				{Table: "orders", Column: "o_date", Op: query.OpEq, Lo: 100, Hi: 100},
			},
			Payload: []query.ColumnRef{{Table: "orders", Column: "o_total"}},
		},
		{
			TemplateID: 2,
			Tables:     []string{"orders", "customer"},
			Filters: []query.Predicate{
				{Table: "customer", Column: "c_nation", Op: query.OpEq, Lo: 7, Hi: 7},
				{Table: "orders", Column: "o_date", Op: query.OpRange, Lo: 100, Hi: 160},
			},
			Joins: []query.Join{
				{LeftTable: "orders", LeftColumn: "o_custkey", RightTable: "customer", RightColumn: "c_id"},
			},
			Payload: []query.ColumnRef{{Table: "orders", Column: "o_total"}},
		},
	}
}

func newAdvisor(t *testing.T, opts Options) (*Advisor, *optimizer.Optimizer) {
	t.Helper()
	schema, db := testdb.BuildScaled(1, 1000, 20000)
	cm := engine.DefaultCostModel()
	opt := optimizer.New(schema, cm)
	if opts.MemoryBudgetBytes == 0 {
		opts.MemoryBudgetBytes = db.DataSizeBytes()
	}
	return New(schema, opt, opts), opt
}

func TestRecommendEmptyWorkload(t *testing.T) {
	a, _ := newAdvisor(t, Options{})
	rec := a.Recommend(nil)
	if rec.Config.Len() != 0 || rec.WhatIfCalls != 0 {
		t.Fatalf("empty workload produced %d indexes, %d calls", rec.Config.Len(), rec.WhatIfCalls)
	}
}

func TestRecommendImprovesEstimatedCost(t *testing.T) {
	a, opt := newAdvisor(t, Options{})
	wl := trainingWorkload()
	rec := a.Recommend(wl)
	if rec.Config.Len() == 0 {
		t.Fatal("no indexes recommended for an indexable workload")
	}
	if rec.EstimatedBenefitSec <= 0 {
		t.Fatalf("estimated benefit = %v", rec.EstimatedBenefitSec)
	}
	cost := func(cfg *index.Config) float64 {
		var total float64
		for _, q := range wl {
			c, err := opt.WhatIfCost(q, cfg)
			if err != nil {
				t.Fatal(err)
			}
			total += c
		}
		return total
	}
	if base, with := cost(index.NewConfig()), cost(rec.Config); with >= base {
		t.Fatalf("recommended config estimated no better: %v vs %v", with, base)
	}
}

func TestRecommendRespectsBudget(t *testing.T) {
	schema, db := testdb.BuildScaled(1, 1000, 20000)
	cm := engine.DefaultCostModel()
	opt := optimizer.New(schema, cm)
	budget := db.DataSizeBytes() / 30
	a := New(schema, opt, Options{MemoryBudgetBytes: budget})
	rec := a.Recommend(trainingWorkload())
	var got int64
	for _, ix := range rec.Config.All() {
		got += ix.SizeBytes(schema.MustTable(ix.Table))
	}
	if got > budget {
		t.Fatalf("config size %d exceeds budget %d", got, budget)
	}
}

func TestRecommendationTimeGrowsWithWorkload(t *testing.T) {
	a, _ := newAdvisor(t, Options{})
	small := a.Recommend(trainingWorkload()[:1])
	a2, _ := newAdvisor(t, Options{})
	big := a2.Recommend(trainingWorkload())
	if big.WhatIfCalls <= small.WhatIfCalls {
		t.Fatalf("what-if calls did not grow: %d vs %d", small.WhatIfCalls, big.WhatIfCalls)
	}
	if big.RecommendSec <= small.RecommendSec {
		t.Fatalf("recommendation time did not grow: %v vs %v", small.RecommendSec, big.RecommendSec)
	}
}

func TestTimeLimitCapsSearch(t *testing.T) {
	a, _ := newAdvisor(t, Options{TimeLimitSec: 0.3})
	rec := a.Recommend(trainingWorkload())
	if rec.RecommendSec > 0.3+1e-9 {
		t.Fatalf("recommendation time %v exceeds limit", rec.RecommendSec)
	}
}

func TestMergeIndexes(t *testing.T) {
	a := index.New("t", []string{"a"}, []string{"p"})
	b := index.New("t", []string{"a", "b"}, []string{"q"})
	m := mergeIndexes(a, b)
	if m == nil {
		t.Fatal("prefix pair did not merge")
	}
	if len(m.Key) != 2 || m.Key[0] != "a" || m.Key[1] != "b" {
		t.Fatalf("merged key = %v", m.Key)
	}
	if !m.HasColumn("p") || !m.HasColumn("q") {
		t.Fatalf("merged includes = %v", m.Include)
	}
	if mergeIndexes(index.New("t", []string{"a"}, nil), index.New("t", []string{"b", "a"}, nil)) != nil {
		t.Fatal("non-prefix pair merged")
	}
}

func TestMergingReducesIndexCountOrKeepsCost(t *testing.T) {
	// With merging disabled the advisor may keep redundant prefix pairs;
	// with it enabled the config should never be larger.
	aOn, _ := newAdvisor(t, Options{})
	aOff, _ := newAdvisor(t, Options{})
	aOff.disableMerging = true
	wl := trainingWorkload()
	recOn := aOn.Recommend(wl)
	recOff := aOff.Recommend(wl)
	if recOn.Config.Len() > recOff.Config.Len() {
		t.Fatalf("merging increased index count: %d vs %d", recOn.Config.Len(), recOff.Config.Len())
	}
}

func TestRecommendDeterministic(t *testing.T) {
	a1, _ := newAdvisor(t, Options{})
	a2, _ := newAdvisor(t, Options{})
	r1 := a1.Recommend(trainingWorkload())
	r2 := a2.Recommend(trainingWorkload())
	ids1 := r1.Config.IDs()
	ids2 := r2.Config.IDs()
	if len(ids1) != len(ids2) {
		t.Fatalf("nondeterministic: %v vs %v", ids1, ids2)
	}
	for i := range ids1 {
		if ids1[i] != ids2[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, ids1, ids2)
		}
	}
}
