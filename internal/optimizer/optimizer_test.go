package optimizer

import (
	"math"
	"testing"
	"testing/quick"

	"dbabandits/internal/engine"
	"dbabandits/internal/index"
	"dbabandits/internal/query"
	"dbabandits/internal/testdb"
)

func TestSelectivityOperators(t *testing.T) {
	schema, _ := testdb.Build(1)
	meta := schema.MustTable("orders")
	// o_date is uniform over [0, 2000].
	eq := Selectivity(meta, query.Predicate{Table: "orders", Column: "o_date", Op: query.OpEq, Lo: 100, Hi: 100})
	col, _ := meta.Column("o_date")
	if want := 1 / float64(col.Stats.NDV); math.Abs(eq-want) > 1e-12 {
		t.Fatalf("eq sel = %v, want %v", eq, want)
	}
	rng := Selectivity(meta, query.Predicate{Table: "orders", Column: "o_date", Op: query.OpRange, Lo: 0, Hi: 2000})
	if rng < 0.99 || rng > 1 {
		t.Fatalf("full-range sel = %v", rng)
	}
	empty := Selectivity(meta, query.Predicate{Table: "orders", Column: "o_date", Op: query.OpRange, Lo: 5000, Hi: 6000})
	if empty != 0 {
		t.Fatalf("out-of-domain range sel = %v", empty)
	}
	lt := Selectivity(meta, query.Predicate{Table: "orders", Column: "o_date", Op: query.OpLt, Hi: col.Stats.Min + (col.Stats.Max-col.Stats.Min)/2})
	if lt < 0.4 || lt > 0.6 {
		t.Fatalf("half-range lt sel = %v", lt)
	}
	gt := Selectivity(meta, query.Predicate{Table: "orders", Column: "o_date", Op: query.OpGt, Lo: col.Stats.Max})
	if gt != 0 {
		t.Fatalf("gt max sel = %v", gt)
	}
	missing := Selectivity(meta, query.Predicate{Table: "orders", Column: "ghost", Op: query.OpEq})
	if missing != 1 {
		t.Fatalf("missing column sel = %v", missing)
	}
}

func TestUniformEstimateCloseToTruth(t *testing.T) {
	schema, db := testdb.Build(2)
	meta := schema.MustTable("orders")
	orders := db.MustTable("orders")
	p := []query.Predicate{{Table: "orders", Column: "o_date", Op: query.OpRange, Lo: 0, Hi: 500}}
	est := ConjunctionSelectivity(meta, p)
	truth := orders.Selectivity(p)
	if math.Abs(est-truth) > 0.05 {
		t.Fatalf("uniform estimate %v far from truth %v", est, truth)
	}
}

func TestSkewEstimateUnderestimatesHotValue(t *testing.T) {
	schema, db := testdb.Build(2)
	meta := schema.MustTable("orders")
	orders := db.MustTable("orders")
	// o_status is zipf(2): value at domain lo is hot.
	hot := []query.Predicate{{Table: "orders", Column: "o_status", Op: query.OpEq, Lo: 0, Hi: 0}}
	est := ConjunctionSelectivity(meta, hot)
	truth := orders.Selectivity(hot)
	if truth < 5*est {
		t.Fatalf("expected gross underestimate on hot value: est %v, truth %v", est, truth)
	}
}

func TestAVIUnderestimatesCorrelatedConjunction(t *testing.T) {
	schema, db := testdb.Build(2)
	meta := schema.MustTable("orders")
	orders := db.MustTable("orders")
	// o_priority tracks o_status: conjunction truth is close to the
	// single-predicate truth but AVI multiplies the selectivities.
	preds := []query.Predicate{
		{Table: "orders", Column: "o_status", Op: query.OpRange, Lo: 0, Hi: 5},
		{Table: "orders", Column: "o_priority", Op: query.OpRange, Lo: 0, Hi: 5},
	}
	est := ConjunctionSelectivity(meta, preds)
	truth := orders.Selectivity(preds)
	if truth < 2*est {
		t.Fatalf("expected AVI underestimate: est %v, truth %v", est, truth)
	}
}

func TestBestAccessPrefersIndexAtScale(t *testing.T) {
	schema, _ := testdb.BuildScaled(1, 1000, 20000)
	o := New(schema, engine.DefaultCostModel())
	q := &query.Query{
		Tables: []string{"orders"},
		Filters: []query.Predicate{
			{Table: "orders", Column: "o_date", Op: query.OpEq, Lo: 100, Hi: 100},
		},
		Payload: []query.ColumnRef{{Table: "orders", Column: "o_total"}},
	}
	cfg := index.NewConfig()
	cfg.Add(index.New("orders", []string{"o_date"}, []string{"o_total"}))
	plan, err := o.ChoosePlan(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Driver.Index == nil {
		t.Fatalf("expected index access, got %s", plan.Driver)
	}
	if plan.Driver.Kind != engine.AccessIndexOnly {
		t.Fatalf("expected covering access, got %s", plan.Driver.Kind)
	}
	// Without the index: seq scan.
	plan2, err := o.ChoosePlan(q, index.NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	if plan2.Driver.Kind != engine.AccessSeqScan {
		t.Fatalf("expected seq scan, got %s", plan2.Driver)
	}
	if plan.EstCost >= plan2.EstCost {
		t.Fatal("index plan should be estimated cheaper")
	}
}

func TestChoosePlanJoinOrderValid(t *testing.T) {
	schema, _ := testdb.Build(1)
	o := New(schema, engine.DefaultCostModel())
	q := &query.Query{
		Tables: []string{"orders", "customer", "part"},
		Filters: []query.Predicate{
			{Table: "customer", Column: "c_nation", Op: query.OpEq, Lo: 3, Hi: 3},
			{Table: "part", Column: "p_size", Op: query.OpRange, Lo: 1, Hi: 10},
		},
		Joins: []query.Join{
			{LeftTable: "orders", LeftColumn: "o_custkey", RightTable: "customer", RightColumn: "c_id"},
			{LeftTable: "orders", LeftColumn: "o_partkey", RightTable: "part", RightColumn: "p_id"},
		},
		Payload: []query.ColumnRef{{Table: "orders", Column: "o_total"}},
	}
	plan, err := o.ChoosePlan(q, index.NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 2 {
		t.Fatalf("steps = %d", len(plan.Steps))
	}
	// Every step's outer table must already be in the pipeline.
	inPipe := map[string]bool{plan.Driver.Table: true}
	for _, s := range plan.Steps {
		if !inPipe[s.OuterTable] {
			t.Fatalf("step outer %q not in pipeline", s.OuterTable)
		}
		inPipe[s.InnerTable] = true
	}
	if len(inPipe) != 3 {
		t.Fatalf("not all tables joined: %v", inPipe)
	}
}

func TestChoosePlanExecutes(t *testing.T) {
	schema, db := testdb.Build(1)
	cm := engine.DefaultCostModel()
	o := New(schema, cm)
	q := &query.Query{
		Tables: []string{"orders", "customer"},
		Filters: []query.Predicate{
			{Table: "customer", Column: "c_nation", Op: query.OpEq, Lo: 3, Hi: 3},
		},
		Joins: []query.Join{
			{LeftTable: "orders", LeftColumn: "o_custkey", RightTable: "customer", RightColumn: "c_id"},
		},
		Payload: []query.ColumnRef{{Table: "orders", Column: "o_total"}},
	}
	plan, err := o.ChoosePlan(q, index.NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := engine.Execute(db, plan, cm)
	if err != nil {
		t.Fatalf("optimiser plan failed to execute: %v", err)
	}
	if st.TotalSec <= 0 {
		t.Fatal("non-positive execution time")
	}
}

func TestNLInnerAccessClusteredPK(t *testing.T) {
	schema, _ := testdb.Build(1)
	o := New(schema, engine.DefaultCostModel())
	meta := schema.MustTable("customer")
	q := &query.Query{Tables: []string{"customer"}}
	acc, ok := o.nlInnerAccess(q, meta, "c_id", index.NewConfig())
	if !ok || acc.Kind != engine.AccessClusteredSeek {
		t.Fatalf("expected clustered seek, got %v ok=%v", acc, ok)
	}
	// Non-key column without index: no NL access.
	if _, ok := o.nlInnerAccess(q, meta, "c_nation", index.NewConfig()); ok {
		t.Fatal("NL access without index should fail")
	}
	// Secondary index with matching leading column enables NL.
	cfg := index.NewConfig()
	ix := index.New("customer", []string{"c_nation"}, nil)
	cfg.Add(ix)
	acc, ok = o.nlInnerAccess(q, meta, "c_nation", cfg)
	if !ok || acc.Index == nil || acc.Index.ID() != ix.ID() {
		t.Fatalf("expected secondary NL access, got %v ok=%v", acc, ok)
	}
}

func TestWhatIfCostDropsWithUsefulIndex(t *testing.T) {
	schema, _ := testdb.BuildScaled(1, 1000, 20000)
	o := New(schema, engine.DefaultCostModel())
	q := &query.Query{
		Tables: []string{"orders"},
		Filters: []query.Predicate{
			{Table: "orders", Column: "o_date", Op: query.OpEq, Lo: 50, Hi: 50},
		},
	}
	base, err := o.WhatIfCost(q, index.NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := index.NewConfig()
	cfg.Add(index.New("orders", []string{"o_date"}, nil))
	with, err := o.WhatIfCost(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if with >= base {
		t.Fatalf("what-if with index (%v) not cheaper than without (%v)", with, base)
	}
}

func TestChoosePlanErrors(t *testing.T) {
	schema, _ := testdb.Build(1)
	o := New(schema, engine.DefaultCostModel())
	if _, err := o.ChoosePlan(&query.Query{}, nil); err == nil {
		t.Fatal("empty query accepted")
	}
	if _, err := o.ChoosePlan(&query.Query{Tables: []string{"ghost"}}, nil); err == nil {
		t.Fatal("unknown table accepted")
	}
	disconnected := &query.Query{Tables: []string{"orders", "customer"}}
	if _, err := o.ChoosePlan(disconnected, nil); err == nil {
		t.Fatal("disconnected join graph accepted")
	}
}

// Property: selectivity estimates always land in [0, 1], and conjunction
// estimates never exceed the smallest single-predicate estimate (AVI).
func TestQuickSelectivityBounds(t *testing.T) {
	schema, _ := testdb.Build(9)
	meta := schema.MustTable("orders")
	f := func(lo, hi int64, opRaw uint8) bool {
		op := query.Op(int(opRaw) % 4)
		p := query.Predicate{Table: "orders", Column: "o_date", Op: op, Lo: lo, Hi: hi}
		s := Selectivity(meta, p)
		if s < 0 || s > 1 {
			return false
		}
		q := query.Predicate{Table: "orders", Column: "o_status", Op: query.OpEq, Lo: 1, Hi: 1}
		conj := ConjunctionSelectivity(meta, []query.Predicate{p, q})
		return conj <= s+1e-12 && conj <= Selectivity(meta, q)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: plans produced by the optimiser always execute without error
// and their join pipelines are connected.
func TestQuickPlansAlwaysExecutable(t *testing.T) {
	schema, db := testdb.Build(11)
	cm := engine.DefaultCostModel()
	o := New(schema, cm)
	cfg := index.NewConfig()
	cfg.Add(index.New("orders", []string{"o_custkey"}, nil))
	cfg.Add(index.New("orders", []string{"o_date", "o_status"}, []string{"o_total"}))
	f := func(nation uint8, dateHi uint16, useJoin bool) bool {
		q := &query.Query{
			Tables: []string{"orders"},
			Filters: []query.Predicate{
				{Table: "orders", Column: "o_date", Op: query.OpRange, Lo: 0, Hi: int64(dateHi % 2001)},
			},
			Payload: []query.ColumnRef{{Table: "orders", Column: "o_total"}},
		}
		if useJoin {
			q.Tables = append(q.Tables, "customer")
			q.Filters = append(q.Filters, query.Predicate{Table: "customer", Column: "c_nation", Op: query.OpEq, Lo: int64(nation % 25), Hi: int64(nation % 25)})
			q.Joins = []query.Join{{LeftTable: "orders", LeftColumn: "o_custkey", RightTable: "customer", RightColumn: "c_id"}}
		}
		plan, err := o.ChoosePlan(q, cfg)
		if err != nil {
			return false
		}
		_, err = engine.Execute(db, plan, cm)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
