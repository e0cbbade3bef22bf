package query

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func sampleQuery() *Query {
	return &Query{
		TemplateID: 3,
		Benchmark:  "tpch",
		Tables:     []string{"orders", "customer"},
		Filters: []Predicate{
			{Table: "orders", Column: "o_date", Op: OpRange, Lo: 100, Hi: 200},
			{Table: "customer", Column: "c_nation", Op: OpEq, Lo: 7},
		},
		Joins: []Join{
			{LeftTable: "orders", LeftColumn: "o_custkey", RightTable: "customer", RightColumn: "c_id"},
		},
		Payload: []ColumnRef{
			{Table: "orders", Column: "o_total"},
			{Table: "customer", Column: "c_name"},
		},
	}
}

func TestPredicateMatches(t *testing.T) {
	cases := []struct {
		p    Predicate
		v    int64
		want bool
	}{
		{Predicate{Op: OpEq, Lo: 5, Hi: 5}, 5, true},
		{Predicate{Op: OpEq, Lo: 5, Hi: 5}, 6, false},
		{Predicate{Op: OpRange, Lo: 1, Hi: 10}, 1, true},
		{Predicate{Op: OpRange, Lo: 1, Hi: 10}, 10, true},
		{Predicate{Op: OpRange, Lo: 1, Hi: 10}, 11, false},
		{Predicate{Op: OpLt, Hi: 4}, 3, true},
		{Predicate{Op: OpLt, Hi: 4}, 4, false},
		{Predicate{Op: OpGt, Lo: 4}, 5, true},
		{Predicate{Op: OpGt, Lo: 4}, 4, false},
		{Predicate{Op: OpLt, Hi: math.MinInt64}, math.MinInt64, false},
		{Predicate{Op: OpLt, Hi: math.MaxInt64}, math.MinInt64, true},
		{Predicate{Op: OpGt, Lo: math.MaxInt64}, math.MaxInt64, false},
		{Predicate{Op: OpGt, Lo: math.MinInt64}, math.MaxInt64, true},
		{Predicate{Op: Op(9), Lo: 0, Hi: 0}, 0, false},
	}
	for i, c := range cases {
		if got := c.p.Matches(c.v); got != c.want {
			t.Fatalf("case %d: Matches(%d) = %v", i, c.v, got)
		}
	}
}

func TestIsEquality(t *testing.T) {
	if !(Predicate{Op: OpEq}).IsEquality() {
		t.Fatal("OpEq should be equality")
	}
	if (Predicate{Op: OpRange}).IsEquality() {
		t.Fatal("OpRange should not be equality")
	}
}

func TestColumnAccessors(t *testing.T) {
	q := sampleQuery()
	if got := q.PredicateColumnsOn("orders"); len(got) != 1 || got[0] != "o_date" {
		t.Fatalf("predicate columns = %v", got)
	}
	if got := q.JoinColumnsOn("customer"); len(got) != 1 || got[0] != "c_id" {
		t.Fatalf("join columns = %v", got)
	}
	if got := q.PayloadColumnsOn("orders"); len(got) != 1 || got[0] != "o_total" {
		t.Fatalf("payload columns = %v", got)
	}
	if got := q.FiltersOn("customer"); len(got) != 1 || got[0].Column != "c_nation" {
		t.Fatalf("filters = %v", got)
	}
	if !q.ReferencesTable("orders") || q.ReferencesTable("lineitem") {
		t.Fatal("ReferencesTable wrong")
	}
}

func TestSQLRendering(t *testing.T) {
	q := sampleQuery()
	sql := q.SQL()
	for _, want := range []string{
		"SELECT orders.o_total, customer.c_name",
		"FROM orders, customer",
		"orders.o_custkey = customer.c_id",
		"orders.o_date BETWEEN 100 AND 200",
		"customer.c_nation = 7",
	} {
		if !strings.Contains(sql, want) {
			t.Fatalf("SQL %q missing %q", sql, want)
		}
	}
	empty := &Query{Tables: []string{"t"}}
	if !strings.Contains(empty.SQL(), "COUNT(*)") {
		t.Fatalf("empty payload SQL = %q", empty.SQL())
	}
}

func TestSignatureIgnoresConstants(t *testing.T) {
	a := sampleQuery()
	b := sampleQuery()
	b.Filters[0].Lo, b.Filters[0].Hi = 500, 900
	if a.Signature() != b.Signature() {
		t.Fatal("signature should ignore constants")
	}
	c := sampleQuery()
	c.Filters[1].Column = "c_region"
	if a.Signature() == c.Signature() {
		t.Fatal("signature should reflect predicate columns")
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{OpEq: "=", OpRange: "between", OpLt: "<", OpGt: ">"} {
		if op.String() != want {
			t.Fatalf("Op(%d).String() = %q", int(op), op.String())
		}
	}
}

// Property: range predicates match exactly the closed interval.
func TestQuickRangeMatch(t *testing.T) {
	f := func(lo, hi, v int64) bool {
		p := Predicate{Op: OpRange, Lo: lo, Hi: hi}
		return p.Matches(v) == (v >= lo && v <= hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Matches (which tests Bounds) agrees with each operator's
// definition.
func TestQuickBoundsMatchOperators(t *testing.T) {
	f := func(opRaw uint8, lo, hi, v int64) bool {
		p := Predicate{Op: Op(opRaw % 5), Lo: lo, Hi: hi}
		var want bool
		switch p.Op {
		case OpEq:
			want = v == lo
		case OpRange:
			want = v >= lo && v <= hi
		case OpLt:
			want = v < hi
		case OpGt:
			want = v > lo
		}
		return p.Matches(v) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: signature is permutation-invariant in tables, filters,
// payload and joins, and in the two sides of each join.
func TestQuickSignaturePermutationInvariant(t *testing.T) {
	withJoins := func() *Query {
		q := sampleQuery()
		q.Tables = append(q.Tables, "lineitem", "nation")
		q.Joins = append(q.Joins,
			Join{LeftTable: "lineitem", LeftColumn: "l_orderkey", RightTable: "orders", RightColumn: "o_id"},
			Join{LeftTable: "customer", LeftColumn: "c_nation", RightTable: "nation", RightColumn: "n_id"},
		)
		return q
	}
	want := withJoins().Signature()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := withJoins()
		rng.Shuffle(len(p.Tables), func(i, j int) { p.Tables[i], p.Tables[j] = p.Tables[j], p.Tables[i] })
		rng.Shuffle(len(p.Filters), func(i, j int) { p.Filters[i], p.Filters[j] = p.Filters[j], p.Filters[i] })
		rng.Shuffle(len(p.Payload), func(i, j int) { p.Payload[i], p.Payload[j] = p.Payload[j], p.Payload[i] })
		rng.Shuffle(len(p.Joins), func(i, j int) { p.Joins[i], p.Joins[j] = p.Joins[j], p.Joins[i] })
		for i, j := range p.Joins {
			if rng.Intn(2) == 0 {
				p.Joins[i] = Join{LeftTable: j.RightTable, LeftColumn: j.RightColumn, RightTable: j.LeftTable, RightColumn: j.LeftColumn}
			}
		}
		return p.Signature() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSignatureReflectsJoins(t *testing.T) {
	a := sampleQuery()
	b := sampleQuery()
	b.Joins[0].RightColumn = "c_custkey"
	c := sampleQuery()
	c.Joins = nil
	if a.Signature() == b.Signature() || a.Signature() == c.Signature() || b.Signature() == c.Signature() {
		t.Fatalf("queries differing only in a join share a signature: %q, %q, %q",
			a.Signature(), b.Signature(), c.Signature())
	}
}
