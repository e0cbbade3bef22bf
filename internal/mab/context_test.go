package mab

import (
	"math"
	"testing"

	"dbabandits/internal/index"
	"dbabandits/internal/query"
	"dbabandits/internal/testdb"
)

func TestContextDim(t *testing.T) {
	schema, _ := testdb.Build(1)
	cb := NewContextBuilder(schema)
	want := derivedDims
	for _, tbl := range schema.Tables {
		want += len(tbl.Columns)
	}
	if got := cb.Dim(); got != want {
		t.Fatalf("dim = %d, want %d", got, want)
	}
}

func TestContextPrefixEncoding(t *testing.T) {
	schema, _ := testdb.Build(1)
	cb := NewContextBuilder(schema)
	arm := &Arm{
		Index:     index.New("orders", []string{"o_status", "o_date"}, nil),
		Table:     "orders",
		SizeBytes: 1000,
	}
	info := ArmInfo{
		PredicateColumns: map[query.ColumnRef]bool{query.ColumnRef{Table: "orders", Column: "o_status"}: true, query.ColumnRef{Table: "orders", Column: "o_date"}: true},
		DatabaseBytes:    100000,
	}
	x := cb.Build(arm, info).Dense()
	// position 0 -> 10^0 = 1; position 1 -> 10^-1.
	iStatus := cb.colIdx[query.ColumnRef{Table: "orders", Column: "o_status"}]
	iDate := cb.colIdx[query.ColumnRef{Table: "orders", Column: "o_date"}]
	if x[iStatus] != 1 {
		t.Fatalf("leading column component = %v, want 1", x[iStatus])
	}
	if math.Abs(x[iDate]-0.1) > 1e-12 {
		t.Fatalf("second column component = %v, want 0.1", x[iDate])
	}
}

func TestContextPayloadOnlyColumnIsZero(t *testing.T) {
	// Paper Example 3: "Index IX5 includes column C1, but the context for
	// C1 is valued as 0, as this column is considered only due to the
	// query payload."
	schema, _ := testdb.Build(1)
	cb := NewContextBuilder(schema)
	arm := &Arm{
		Index: index.New("orders", []string{"o_status", "o_date", "o_total"}, nil),
		Table: "orders",
	}
	info := ArmInfo{
		// o_total is payload, not a predicate column.
		PredicateColumns: map[query.ColumnRef]bool{query.ColumnRef{Table: "orders", Column: "o_status"}: true, query.ColumnRef{Table: "orders", Column: "o_date"}: true},
		DatabaseBytes:    1,
	}
	x := cb.Build(arm, info).Dense()
	if got := x[cb.colIdx[query.ColumnRef{Table: "orders", Column: "o_total"}]]; got != 0 {
		t.Fatalf("payload-only key column component = %v, want 0", got)
	}
	// Include columns never contribute either.
	arm2 := &Arm{
		Index: index.New("orders", []string{"o_status"}, []string{"o_total"}),
		Table: "orders",
	}
	x2 := cb.Build(arm2, info).Dense()
	if got := x2[cb.colIdx[query.ColumnRef{Table: "orders", Column: "o_total"}]]; got != 0 {
		t.Fatalf("include column component = %v, want 0", got)
	}
}

func TestContextDerivedParts(t *testing.T) {
	schema, _ := testdb.Build(1)
	cb := NewContextBuilder(schema)
	base := cb.Dim() - derivedDims
	arm := &Arm{
		Index:       index.New("orders", []string{"o_date"}, []string{"o_total"}),
		Table:       "orders",
		SizeBytes:   5000,
		CoveringFor: []int{1},
	}
	info := ArmInfo{
		PredicateColumns: map[query.ColumnRef]bool{query.ColumnRef{Table: "orders", Column: "o_date"}: true},
		Materialised:     false,
		Usage:            2.5,
		DatabaseBytes:    100000,
	}
	x := cb.Build(arm, info).Dense()
	if x[base] != 1 {
		t.Fatalf("covering flag = %v", x[base])
	}
	if want := 5000.0 / 100000.0; math.Abs(x[base+1]-want) > 1e-12 {
		t.Fatalf("size component = %v, want %v", x[base+1], want)
	}
	if x[base+2] != 2.5 {
		t.Fatalf("usage component = %v", x[base+2])
	}

	// Materialised arms have zero size component (no creation cost left).
	info.Materialised = true
	x = cb.Build(arm, info).Dense()
	if x[base+1] != 0 {
		t.Fatalf("materialised size component = %v, want 0", x[base+1])
	}
}

func TestContextDistinguishesPrefixOrder(t *testing.T) {
	// The central claim of Part 1: (a,b) and (b,a) get different
	// contexts, unlike bag-of-words.
	schema, _ := testdb.Build(1)
	cb := NewContextBuilder(schema)
	info := ArmInfo{
		PredicateColumns: map[query.ColumnRef]bool{query.ColumnRef{Table: "orders", Column: "o_status"}: true, query.ColumnRef{Table: "orders", Column: "o_date"}: true},
		DatabaseBytes:    1,
	}
	ab := cb.Build(&Arm{Index: index.New("orders", []string{"o_status", "o_date"}, nil), Table: "orders"}, info).Dense()
	ba := cb.Build(&Arm{Index: index.New("orders", []string{"o_date", "o_status"}, nil), Table: "orders"}, info).Dense()
	same := len(ab) == len(ba)
	for i := 0; same && i < len(ab); i++ {
		same = math.Abs(ab[i]-ba[i]) <= 1e-12
	}
	if same {
		t.Fatal("prefix encoding failed to distinguish key orders")
	}
}
