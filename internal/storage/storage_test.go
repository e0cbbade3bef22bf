package storage

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dbabandits/internal/catalog"
	"dbabandits/internal/query"
)

func fixtureTable() *Table {
	meta := &catalog.Table{
		Name:     "t",
		BaseRows: 8,
		RowCount: 80,
		Columns: []catalog.Column{
			{Name: "a", Kind: catalog.KindInt},
			{Name: "b", Kind: catalog.KindInt},
		},
	}
	return &Table{
		Meta:       meta,
		StoredRows: 8,
		Mult:       10,
		Cols: [][]int64{
			{1, 2, 3, 4, 5, 6, 7, 8},
			{0, 0, 1, 1, 0, 1, 0, 1},
		},
	}
}

func TestColumnLookup(t *testing.T) {
	tbl := fixtureTable()
	col, ok := tbl.Column("a")
	if !ok || col[3] != 4 {
		t.Fatal("column lookup failed")
	}
	if _, ok := tbl.Column("ghost"); ok {
		t.Fatal("missing column found")
	}
	if got := tbl.MustColumn("b"); got[2] != 1 {
		t.Fatal("MustColumn wrong")
	}
}

func TestMustColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fixtureTable().MustColumn("ghost")
}

func TestLogicalRows(t *testing.T) {
	if got := fixtureTable().LogicalRows(); got != 80 {
		t.Fatalf("logical rows = %v", got)
	}
}

func TestSelectRowsConjunction(t *testing.T) {
	tbl := fixtureTable()
	preds := []query.Predicate{
		{Table: "t", Column: "a", Op: query.OpGt, Lo: 3},
		{Table: "t", Column: "b", Op: query.OpEq, Lo: 1, Hi: 1},
	}
	rows, ok := tbl.AppendSelectRows(nil, preds)
	if !ok {
		t.Fatal("select failed")
	}
	// a > 3 AND b == 1: rows with a in {4, 6, 8} -> ids 3, 5, 7
	want := []int32{3, 5, 7}
	if len(rows) != len(want) {
		t.Fatalf("rows = %v", rows)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("rows = %v, want %v", rows, want)
		}
	}
}

func TestSelectRowsIgnoresOtherTables(t *testing.T) {
	tbl := fixtureTable()
	preds := []query.Predicate{
		{Table: "other", Column: "a", Op: query.OpEq, Lo: 1, Hi: 1},
	}
	rows, ok := tbl.AppendSelectRows(nil, preds)
	if !ok || len(rows) != tbl.StoredRows {
		t.Fatalf("cross-table predicate altered selection: %d rows", len(rows))
	}
}

func TestSelectRowsMissingColumn(t *testing.T) {
	tbl := fixtureTable()
	preds := []query.Predicate{{Table: "t", Column: "ghost", Op: query.OpEq}}
	if _, ok := tbl.AppendSelectRows(nil, preds); ok {
		t.Fatal("missing column accepted")
	}
	if _, ok := tbl.CountRows(preds); ok {
		t.Fatal("missing column accepted by count")
	}
}

func TestCountRowsEmptyPreds(t *testing.T) {
	tbl := fixtureTable()
	n, ok := tbl.CountRows(nil)
	if !ok || n != 8 {
		t.Fatalf("count = %d", n)
	}
}

func TestSelectivity(t *testing.T) {
	tbl := fixtureTable()
	sel := tbl.Selectivity([]query.Predicate{
		{Table: "t", Column: "b", Op: query.OpEq, Lo: 1, Hi: 1},
	})
	if sel != 0.5 {
		t.Fatalf("selectivity = %v", sel)
	}
	empty := &Table{Meta: tbl.Meta, StoredRows: 0}
	if empty.Selectivity(nil) != 0 {
		t.Fatal("empty table selectivity should be 0")
	}
}

func TestDatabaseLookup(t *testing.T) {
	tbl := fixtureTable()
	db := &Database{
		Schema: catalog.MustSchema("s", tbl.Meta),
		Tables: map[string]*Table{"t": tbl},
	}
	if _, ok := db.Table("t"); !ok {
		t.Fatal("table lookup failed")
	}
	if _, ok := db.Table("ghost"); ok {
		t.Fatal("missing table found")
	}
	if db.MustTable("t") != tbl {
		t.Fatal("MustTable wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	db.MustTable("ghost")
}

// Property: AppendSelectRows and CountRows always agree, and every
// selected row satisfies the conjunction. AppendSelectRows returns the
// same ids after a caller's prefix, which it leaves intact, and on a
// missing column cuts dst back to that prefix.
func TestQuickSelectCountAgreement(t *testing.T) {
	tbl := fixtureTable()
	f := func(lo, hi int64, op uint8, useB bool, prefix []int32) bool {
		preds := []query.Predicate{
			{Table: "t", Column: "a", Op: query.Op(op % 4), Lo: lo % 10, Hi: hi % 10},
		}
		if useB {
			preds = append(preds, query.Predicate{Table: "t", Column: "b", Op: query.OpEq, Lo: 1, Hi: 1})
		}
		rows, ok1 := tbl.AppendSelectRows(nil, preds)
		n, ok2 := tbl.CountRows(preds)
		if !ok1 || !ok2 || len(rows) != n {
			return false
		}
		for _, r := range rows {
			for _, p := range preds {
				col, _ := tbl.Column(p.Column)
				if !p.Matches(col[r]) {
					return false
				}
			}
		}

		dst := append([]int32(nil), prefix...)
		got, ok := tbl.AppendSelectRows(dst, preds)
		if !ok || !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(got[len(prefix):], rows) {
			return false
		}
		bad := append(preds, query.Predicate{Table: "t", Column: "ghost", Op: query.OpEq})
		got, ok = tbl.AppendSelectRows(dst, bad)
		return !ok && slices.Equal(got, prefix)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCountRowsMatchesNaive holds the block-wise CountRows to a
// row-at-a-time count over a table spanning several blocks and a
// partial last one, with zero to three predicates of every operator,
// including ones that match nothing and ones on other tables.
func TestCountRowsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const rows = 3*countBlock + 17
	meta := &catalog.Table{Name: "t", BaseRows: rows, RowCount: rows}
	tbl := &Table{Meta: meta, StoredRows: rows, Mult: 1}
	for _, c := range []string{"a", "b", "c"} {
		meta.Columns = append(meta.Columns, catalog.Column{Name: c, Kind: catalog.KindInt})
		col := make([]int64, rows)
		for r := range col {
			col[r] = int64(rng.Intn(40)) - 5
		}
		tbl.Cols = append(tbl.Cols, col)
	}
	for trial := 0; trial < 500; trial++ {
		var preds []query.Predicate
		for i := rng.Intn(4); i > 0; i-- {
			table := "t"
			if rng.Intn(5) == 0 {
				table = "other"
			}
			preds = append(preds, query.Predicate{
				Table:  table,
				Column: []string{"a", "b", "c"}[rng.Intn(3)],
				Op:     query.Op(rng.Intn(4)),
				Lo:     int64(rng.Intn(50)) - 10,
				Hi:     int64(rng.Intn(50)) - 10,
			})
		}
		want := 0
		for r := 0; r < rows; r++ {
			match := true
			for _, p := range preds {
				if p.Table == "t" && !p.Matches(tbl.MustColumn(p.Column)[r]) {
					match = false
				}
			}
			if match {
				want++
			}
		}
		if got, ok := tbl.CountRows(preds); !ok || got != want {
			t.Fatalf("trial %d %v: CountRows = %d, %v; want %d", trial, preds, got, ok, want)
		}
	}
}

// TestCountRowsAllocs pins CountRows, which prices every index seek, at
// zero allocations.
func TestCountRowsAllocs(t *testing.T) {
	tbl := fixtureTable()
	preds := []query.Predicate{
		{Table: "t", Column: "a", Op: query.OpRange, Lo: 2, Hi: 7},
		{Table: "t", Column: "b", Op: query.OpEq, Lo: 1},
		{Table: "u", Column: "x", Op: query.OpEq, Lo: 1},
	}
	if got := testing.AllocsPerRun(50, func() { tbl.CountRows(preds) }); got != 0 {
		t.Fatalf("CountRows allocated %v times, want 0", got)
	}
}
