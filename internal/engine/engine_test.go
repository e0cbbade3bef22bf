package engine

import (
	"math"
	"testing"
	"testing/quick"

	"dbabandits/internal/index"
	"dbabandits/internal/query"
	"dbabandits/internal/testdb"
)

func singleTableQuery() *query.Query {
	return &query.Query{
		TemplateID: 1,
		Tables:     []string{"orders"},
		Filters: []query.Predicate{
			{Table: "orders", Column: "o_date", Op: query.OpRange, Lo: 0, Hi: 200},
		},
		Payload: []query.ColumnRef{{Table: "orders", Column: "o_total"}},
	}
}

func joinQuery() *query.Query {
	return &query.Query{
		TemplateID: 2,
		Tables:     []string{"orders", "customer"},
		Filters: []query.Predicate{
			{Table: "customer", Column: "c_nation", Op: query.OpEq, Lo: 3, Hi: 3},
		},
		Joins: []query.Join{
			{LeftTable: "orders", LeftColumn: "o_custkey", RightTable: "customer", RightColumn: "c_id"},
		},
		Payload: []query.ColumnRef{{Table: "orders", Column: "o_total"}},
	}
}

func TestCostModelBasics(t *testing.T) {
	cm := DefaultCostModel()
	if cm.PagesOf(0) != 1 || cm.PagesOf(1) != 1 {
		t.Fatal("PagesOf floor broken")
	}
	if cm.PagesOf(cm.PageBytes+1) != 2 {
		t.Fatal("PagesOf ceil broken")
	}
	schema, _ := testdb.Build(1)
	meta := schema.MustTable("orders")
	s0 := cm.TableScanSec(meta, 0)
	s2 := cm.TableScanSec(meta, 2)
	if s2 <= s0 {
		t.Fatal("more predicates should cost more")
	}
}

func TestIndexSeekCheaperThanScanWhenSelective(t *testing.T) {
	cm := DefaultCostModel()
	// At realistic analytical sizes (millions of rows) a selective seek
	// beats a scan; on toy tables random IO dominates and it should not.
	schema, _ := testdb.BuildScaled(1, 1000, 20000)
	meta := schema.MustTable("orders")
	scan := cm.TableScanSec(meta, 1)
	seek := cm.IndexSeekSec(10, 10, 16, cm.PagesOf(meta.SizeBytes()))
	if seek >= scan {
		t.Fatalf("selective seek (%v) not cheaper than scan (%v)", seek, scan)
	}
	tiny, _ := testdb.Build(1)
	tinyMeta := tiny.MustTable("orders")
	if cm.IndexSeekSec(10, 10, 16, cm.PagesOf(tinyMeta.SizeBytes())) < cm.TableScanSec(tinyMeta, 1) {
		t.Fatal("seek should not beat scanning a sub-megabyte table")
	}
}

func TestIndexSeekFetchCapped(t *testing.T) {
	cm := DefaultCostModel()
	tablePages := 100.0
	// Absurd fetch volume must be capped at NLJoinIOCap x sequential scan.
	capped := cm.IndexSeekSec(10, 1e9, 16, tablePages)
	cap := cm.NLJoinIOCap * tablePages * cm.SeqPageSec
	if got := capped - 10*cm.CPUTupleSec - cm.BTreeHeight*cm.RandPageSec - cm.SeqPageSec; got > cap*1.01 {
		t.Fatalf("fetch IO %v exceeds cap %v", got, cap)
	}
}

func TestNLJoinSecCapped(t *testing.T) {
	cm := DefaultCostModel()
	innerPages := 50.0
	v := cm.NLJoinSec(1e9, 1e3, 0, 16, innerPages)
	ioCap := cm.NLJoinIOCap * innerPages * cm.SeqPageSec
	cpu := (1e9 + 1e3) * cm.CPUTupleSec
	if v > ioCap+cpu+1e-9 {
		t.Fatalf("NL join cost %v exceeds cap %v + cpu %v", v, ioCap, cpu)
	}
}

func TestExecuteSeqScanCountsRows(t *testing.T) {
	_, db := testdb.Build(1)
	q := singleTableQuery()
	plan := &Plan{Query: q, Driver: Access{Table: "orders", Kind: AccessSeqScan}}
	st, err := Execute(db, plan, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	orders := db.MustTable("orders")
	n, _ := orders.CountRows(q.Filters)
	want := float64(n) * orders.Mult
	if math.Abs(st.OutRows-want) > 1e-9 {
		t.Fatalf("OutRows = %v, want %v", st.OutRows, want)
	}
	if st.TotalSec <= 0 {
		t.Fatal("non-positive total time")
	}
	if _, ok := st.TableScanSec["orders"]; !ok {
		t.Fatal("missing table scan baseline")
	}
}

func TestExecuteIndexSeekAttribution(t *testing.T) {
	_, db := testdb.Build(1)
	q := singleTableQuery()
	ix := index.New("orders", []string{"o_date"}, []string{"o_total"})
	plan := &Plan{Query: q, Driver: Access{
		Table: "orders", Kind: AccessIndexOnly, Index: ix, HasRange: true, Covering: true,
	}}
	st, err := Execute(db, plan, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	acc, ok := st.IndexAccessSec[ix.ID()]
	if !ok {
		t.Fatal("index access not attributed")
	}
	if acc.Table != "orders" || acc.Sec <= 0 {
		t.Fatalf("attribution = %+v", acc)
	}
	if acc.Sec != st.TotalSec-DefaultCostModel().OutputSec(st.OutRows, 0) {
		t.Fatalf("driver access %v vs total %v mismatch", acc.Sec, st.TotalSec)
	}
}

func TestCoveringCheaperThanNonCovering(t *testing.T) {
	_, db := testdb.Build(1)
	q := singleTableQuery()
	cm := DefaultCostModel()
	ix := index.New("orders", []string{"o_date"}, []string{"o_total"})
	cover := &Plan{Query: q, Driver: Access{Table: "orders", Kind: AccessIndexOnly, Index: ix, HasRange: true, Covering: true}}
	bare := index.New("orders", []string{"o_date"}, nil)
	fetch := &Plan{Query: q, Driver: Access{Table: "orders", Kind: AccessIndexSeek, Index: bare, HasRange: true, Covering: false}}
	stCover, err := Execute(db, cover, cm)
	if err != nil {
		t.Fatal(err)
	}
	stFetch, err := Execute(db, fetch, cm)
	if err != nil {
		t.Fatal(err)
	}
	if stCover.TotalSec >= stFetch.TotalSec {
		t.Fatalf("covering (%v) not cheaper than fetching (%v)", stCover.TotalSec, stFetch.TotalSec)
	}
}

func TestExecuteHashJoinCardinality(t *testing.T) {
	_, db := testdb.Build(1)
	q := joinQuery()
	plan := &Plan{
		Query:  q,
		Driver: Access{Table: "customer", Kind: AccessSeqScan},
		Steps: []JoinStep{{
			Pred:       q.Joins[0],
			OuterTable: "customer", OuterColumn: "c_id",
			InnerTable: "orders", InnerColumn: "o_custkey",
			Inner: Access{Table: "orders", Kind: AccessSeqScan},
			Algo:  JoinHash,
		}},
	}
	st, err := Execute(db, plan, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	// Manual join count.
	cust := db.MustTable("customer")
	orders := db.MustTable("orders")
	nation := cust.MustColumn("c_nation")
	cids := cust.MustColumn("c_id")
	sel := map[int64]bool{}
	for r := range nation {
		if nation[r] == 3 {
			sel[cids[r]] = true
		}
	}
	var n int
	for _, ck := range orders.MustColumn("o_custkey") {
		if sel[ck] {
			n++
		}
	}
	want := float64(n) * orders.Mult
	if math.Abs(st.OutRows-want) > 1e-9 {
		t.Fatalf("join OutRows = %v, want %v", st.OutRows, want)
	}
}

func TestExecuteINLMatchesHashCardinality(t *testing.T) {
	_, db := testdb.Build(1)
	q := joinQuery()
	mk := func(algo JoinAlgo, inner Access) *Plan {
		return &Plan{
			Query:  q,
			Driver: Access{Table: "customer", Kind: AccessSeqScan},
			Steps: []JoinStep{{
				Pred:       q.Joins[0],
				OuterTable: "customer", OuterColumn: "c_id",
				InnerTable: "orders", InnerColumn: "o_custkey",
				Inner: inner,
				Algo:  algo,
			}},
		}
	}
	cm := DefaultCostModel()
	hashSt, err := Execute(db, mk(JoinHash, Access{Table: "orders", Kind: AccessSeqScan}), cm)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.New("orders", []string{"o_custkey"}, nil)
	nlSt, err := Execute(db, mk(JoinIndexNL, Access{Table: "orders", Kind: AccessIndexSeek, Index: ix, EqLen: 1}), cm)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hashSt.OutRows-nlSt.OutRows) > 1e-9 {
		t.Fatalf("algorithms disagree on cardinality: %v vs %v", hashSt.OutRows, nlSt.OutRows)
	}
	if _, ok := nlSt.IndexAccessSec[ix.ID()]; !ok {
		t.Fatal("INL inner index not attributed")
	}
}

func TestExecuteErrors(t *testing.T) {
	_, db := testdb.Build(1)
	cm := DefaultCostModel()
	badTable := &Plan{Query: &query.Query{Tables: []string{"ghost"}}, Driver: Access{Table: "ghost", Kind: AccessSeqScan}}
	if _, err := Execute(db, badTable, cm); err == nil {
		t.Fatal("unknown table accepted")
	}
	q := joinQuery()
	badStep := &Plan{
		Query:  q,
		Driver: Access{Table: "customer", Kind: AccessSeqScan},
		Steps: []JoinStep{{
			OuterTable: "part", OuterColumn: "p_id", // not in pipeline
			InnerTable: "orders", InnerColumn: "o_custkey",
			Inner: Access{Table: "orders", Kind: AccessSeqScan},
			Algo:  JoinHash,
		}},
	}
	if _, err := Execute(db, badStep, cm); err == nil {
		t.Fatal("disconnected step accepted")
	}
	noIx := &Plan{Query: singleTableQuery(), Driver: Access{Table: "orders", Kind: AccessIndexSeek}}
	if _, err := Execute(db, noIx, cm); err == nil {
		t.Fatal("index access without index accepted")
	}
}

func TestSplitSeekPreds(t *testing.T) {
	ix := index.New("orders", []string{"o_custkey", "o_date"}, nil)
	preds := []query.Predicate{
		{Table: "orders", Column: "o_custkey", Op: query.OpEq, Lo: 5, Hi: 5},
		{Table: "customer", Column: "o_date", Op: query.OpRange, Lo: 0, Hi: 9},
		{Table: "orders", Column: "o_date", Op: query.OpRange, Lo: 0, Hi: 9},
		{Table: "orders", Column: "o_status", Op: query.OpEq, Lo: 1, Hi: 1},
	}
	prefix := query.Predicate{Table: "x", Column: "kept"}
	seek := appendSeekPreds([]query.Predicate{prefix}, ix, preds, "orders", 1, true)
	if len(seek) != 3 || seek[0] != prefix || seek[1] != preds[0] || seek[2] != preds[2] {
		t.Fatalf("seek = %v", seek)
	}
	if n := filterCount(&query.Query{Filters: preds}, "orders") - (len(seek) - 1); n != 1 {
		t.Fatalf("residual count = %d, want 1 (o_status)", n)
	}
}

func TestPlanHelpers(t *testing.T) {
	q := joinQuery()
	ix := index.New("orders", []string{"o_custkey"}, nil)
	p := &Plan{
		Query:  q,
		Driver: Access{Table: "customer", Kind: AccessSeqScan},
		Steps: []JoinStep{{
			OuterTable: "customer", OuterColumn: "c_id",
			InnerTable: "orders", InnerColumn: "o_custkey",
			Inner: Access{Table: "orders", Kind: AccessIndexSeek, Index: ix, EqLen: 1},
			Algo:  JoinIndexNL,
		}},
	}
	if s := p.String(); s == "" {
		t.Fatal("empty plan string")
	}
	if AccessSeqScan.String() != "SeqScan" || JoinIndexNL.String() != "IndexNLJoin" || JoinHash.String() != "HashJoin" {
		t.Fatal("stringers wrong")
	}
}

// Property: execution time is positive and grows (weakly) with the
// aggregation width.
func TestQuickExecutePositiveAndMonotoneAgg(t *testing.T) {
	_, db := testdb.Build(3)
	cm := DefaultCostModel()
	f := func(aggRaw uint8, hi uint16) bool {
		q := singleTableQuery()
		q.Filters[0].Hi = int64(hi % 2001)
		q.AggWidth = int(aggRaw % 8)
		plan := &Plan{Query: q, Driver: Access{Table: "orders", Kind: AccessSeqScan}}
		st, err := Execute(db, plan, cm)
		if err != nil || st.TotalSec <= 0 {
			return false
		}
		q2 := singleTableQuery()
		q2.Filters[0].Hi = q.Filters[0].Hi
		q2.AggWidth = q.AggWidth + 1
		st2, err := Execute(db, &Plan{Query: q2, Driver: plan.Driver}, cm)
		if err != nil {
			return false
		}
		return st2.TotalSec >= st.TotalSec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: true output cardinality never depends on the join algorithm.
func TestQuickAlgoInvariantCardinality(t *testing.T) {
	_, db := testdb.Build(5)
	cm := DefaultCostModel()
	f := func(nation uint8) bool {
		q := joinQuery()
		q.Filters[0].Lo = int64(nation % 25)
		q.Filters[0].Hi = q.Filters[0].Lo
		hash := &Plan{
			Query:  q,
			Driver: Access{Table: "customer", Kind: AccessSeqScan},
			Steps: []JoinStep{{
				OuterTable: "customer", OuterColumn: "c_id",
				InnerTable: "orders", InnerColumn: "o_custkey",
				Inner: Access{Table: "orders", Kind: AccessSeqScan},
				Algo:  JoinHash,
			}},
		}
		nl := &Plan{
			Query:  q,
			Driver: Access{Table: "customer", Kind: AccessSeqScan},
			Steps: []JoinStep{{
				OuterTable: "customer", OuterColumn: "c_id",
				InnerTable: "orders", InnerColumn: "o_custkey",
				Inner: Access{Table: "orders", Kind: AccessClusteredSeek},
				Algo:  JoinIndexNL,
			}},
		}
		a, err1 := Execute(db, hash, cm)
		b, err2 := Execute(db, nl, cm)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(a.OutRows-b.OutRows) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
