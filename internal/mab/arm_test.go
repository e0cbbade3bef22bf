package mab

import (
	"slices"
	"strings"
	"testing"

	"dbabandits/internal/catalog"
	"dbabandits/internal/datagen"
	"dbabandits/internal/query"
	"dbabandits/internal/testdb"
	"dbabandits/internal/workload"
)

// figure1Query mirrors the paper's Figure 1 example: a single-table query
// with two equality predicates and one payload column.
func figure1Query() *query.Query {
	return &query.Query{
		TemplateID: 1,
		Tables:     []string{"orders"},
		Filters: []query.Predicate{
			{Table: "orders", Column: "o_date", Op: query.OpEq, Lo: 5, Hi: 5},
			{Table: "orders", Column: "o_status", Op: query.OpEq, Lo: 6, Hi: 6},
		},
		Payload: []query.ColumnRef{{Table: "orders", Column: "o_total"}},
	}
}

func TestGenerateFigure1Example(t *testing.T) {
	schema, _ := testdb.Build(1)
	g := NewArmGenerator(schema)
	arms := g.Generate([]*query.Query{figure1Query()})
	// Paper's Example 3: two predicates generate six arms — four key-only
	// permutations (2 singles + 2 ordered pairs) and two covering
	// variants (the pair permutations with the payload included).
	if len(arms) != 6 {
		ids := make([]string, len(arms))
		for i, a := range arms {
			ids[i] = a.ID()
		}
		t.Fatalf("got %d arms, want 6: %v", len(arms), ids)
	}
	var covering, plain int
	for _, a := range arms {
		if a.IsCovering() {
			covering++
			if len(a.Index.Include) == 0 {
				t.Fatalf("covering arm without includes: %s", a.ID())
			}
		} else {
			plain++
		}
	}
	if covering != 2 || plain != 4 {
		t.Fatalf("covering=%d plain=%d", covering, plain)
	}
}

func TestGenerateIncludesJoinColumns(t *testing.T) {
	schema, _ := testdb.Build(1)
	g := NewArmGenerator(schema)
	q := &query.Query{
		TemplateID: 2,
		Tables:     []string{"orders", "customer"},
		Filters: []query.Predicate{
			{Table: "customer", Column: "c_nation", Op: query.OpEq, Lo: 1, Hi: 1},
		},
		Joins: []query.Join{
			{LeftTable: "orders", LeftColumn: "o_custkey", RightTable: "customer", RightColumn: "c_id"},
		},
	}
	arms := g.Generate([]*query.Query{q})
	foundJoinArm := false
	for _, a := range arms {
		if a.Table == "orders" && a.Index.Key[0] == "o_custkey" {
			foundJoinArm = true
		}
		// c_id is the leading PK column of customer: no arm should be
		// generated for it.
		if a.Table == "customer" && a.Index.Key[0] == "c_id" {
			t.Fatalf("arm on clustered PK leading column: %s", a.ID())
		}
	}
	if !foundJoinArm {
		t.Fatal("no arm generated for the fact-side join column")
	}
}

func TestGenerateDeduplicatesAcrossQueries(t *testing.T) {
	schema, _ := testdb.Build(1)
	g := NewArmGenerator(schema)
	q1 := figure1Query()
	q2 := figure1Query()
	q2.TemplateID = 7
	arms := g.Generate([]*query.Query{q1, q2})
	for _, a := range arms {
		if len(a.Queries) != 2 {
			t.Fatalf("arm %s motivated by %v, want both templates", a.ID(), a.Queries)
		}
	}
}

func TestGenerateCapsWidePredicateSets(t *testing.T) {
	schema, _ := testdb.Build(1)
	g := NewArmGenerator(schema)
	q := &query.Query{
		TemplateID: 3,
		Tables:     []string{"orders"},
		Filters: []query.Predicate{
			{Table: "orders", Column: "o_date", Op: query.OpRange, Lo: 0, Hi: 10},
			{Table: "orders", Column: "o_status", Op: query.OpEq, Lo: 1, Hi: 1},
			{Table: "orders", Column: "o_priority", Op: query.OpEq, Lo: 2, Hi: 2},
			{Table: "orders", Column: "o_total", Op: query.OpGt, Lo: 100},
			{Table: "orders", Column: "o_custkey", Op: query.OpEq, Lo: 5, Hi: 5},
		},
	}
	arms := g.Generate([]*query.Query{q})
	if len(arms) == 0 || len(arms) > 24 {
		t.Fatalf("got %d arms, want 1..24", len(arms))
	}
	// The canonical full ordering must put equality columns first.
	var full *Arm
	for _, a := range arms {
		if len(a.Index.Key) == 5 {
			full = a
		}
	}
	if full == nil {
		t.Fatal("no full-key canonical arm generated")
	}
	firstThree := strings.Join(full.Index.Key[:3], ",")
	for _, c := range []string{"o_status", "o_priority", "o_custkey"} {
		if !strings.Contains(firstThree, c) {
			t.Fatalf("equality column %s not leading in canonical order %v", c, full.Index.Key)
		}
	}
}

func TestGenerateDeterministicOrder(t *testing.T) {
	schema, _ := testdb.Build(1)
	g := NewArmGenerator(schema)
	a := g.Generate([]*query.Query{figure1Query()})
	b := g.Generate([]*query.Query{figure1Query()})
	if len(a) != len(b) {
		t.Fatal("nondeterministic arm count")
	}
	for i := range a {
		if a[i].ID() != b[i].ID() {
			t.Fatalf("order differs at %d: %s vs %s", i, a[i].ID(), b[i].ID())
		}
	}
}

func TestGenerateMemoisedAcrossInstances(t *testing.T) {
	// Two instances of one template differ only in constants; the
	// memoised generator must produce identical arm sets for both — and
	// identical to a cold generator's output.
	schema, _ := testdb.Build(1)
	warm := NewArmGenerator(schema)
	q1 := figure1Query()
	first := warm.Generate([]*query.Query{q1})

	q2 := figure1Query()
	q2.Filters[0].Lo, q2.Filters[0].Hi = 99, 99 // fresh constants, same shape
	second := warm.Generate([]*query.Query{q2})

	cold := NewArmGenerator(schema).Generate([]*query.Query{q2})
	for _, other := range [][]*Arm{second, cold} {
		if len(first) != len(other) {
			t.Fatalf("arm counts differ: %d vs %d", len(first), len(other))
		}
		for i := range first {
			if first[i].ID() != other[i].ID() || first[i].SizeBytes != other[i].SizeBytes {
				t.Fatalf("arm %d differs: %s vs %s", i, first[i].ID(), other[i].ID())
			}
			if len(first[i].Queries) != len(other[i].Queries) {
				t.Fatalf("arm %d queries differ: %v vs %v", i, first[i].Queries, other[i].Queries)
			}
		}
	}
}

func TestGenerateMemoReturnsFreshSlice(t *testing.T) {
	// Callers may reorder the returned slice (the oracle sorts
	// candidates); the memo must hand out a fresh slice each round so a
	// caller's reordering cannot corrupt later rounds.
	schema, _ := testdb.Build(1)
	g := NewArmGenerator(schema)
	qs := []*query.Query{figure1Query()}
	a := g.Generate(qs)
	if len(a) < 2 {
		t.Fatal("fixture too small")
	}
	a[0], a[1] = a[1], a[0]
	b := g.Generate(qs)
	for i := 1; i < len(b); i++ {
		if b[i-1].ID() >= b[i].ID() {
			t.Fatalf("cached result order corrupted by caller mutation: %v >= %v", b[i-1].ID(), b[i].ID())
		}
	}
}

func TestGenerateMemoKeyedByQoISet(t *testing.T) {
	// Growing and shrinking the QoI set must not leak motivating-template
	// lists across cache entries.
	schema, _ := testdb.Build(1)
	g := NewArmGenerator(schema)
	q1 := figure1Query()
	q2 := figure1Query()
	q2.TemplateID = 7

	solo := g.Generate([]*query.Query{q1})
	both := g.Generate([]*query.Query{q1, q2})
	soloAgain := g.Generate([]*query.Query{q1})

	for _, a := range solo {
		if len(a.Queries) != 1 || a.Queries[0] != 1 {
			t.Fatalf("solo arm %s motivated by %v", a.ID(), a.Queries)
		}
	}
	for _, a := range both {
		if len(a.Queries) != 2 {
			t.Fatalf("dual arm %s motivated by %v", a.ID(), a.Queries)
		}
	}
	for i, a := range soloAgain {
		if len(a.Queries) != 1 {
			t.Fatalf("cached solo arm %s motivated by %v", a.ID(), a.Queries)
		}
		if a.ID() != solo[i].ID() {
			t.Fatalf("cache replay changed order at %d", i)
		}
	}
}

func TestGenerateMemoDistinguishesJoins(t *testing.T) {
	// Arm generation feeds join columns into the candidate keys, so the
	// shape key the memo uses, query.Signature(), must tell a joined
	// query from its join-free twin, and the memo must not serve the
	// join-free query's protos to the joined one.
	schema, _ := testdb.Build(1)
	g := NewArmGenerator(schema)
	plain := &query.Query{
		TemplateID: 4,
		Tables:     []string{"orders", "customer"},
		Filters: []query.Predicate{
			{Table: "customer", Column: "c_nation", Op: query.OpEq, Lo: 1, Hi: 1},
		},
	}
	joined := &query.Query{
		TemplateID: 4,
		Tables:     []string{"orders", "customer"},
		Filters:    plain.Filters,
		Joins: []query.Join{
			{LeftTable: "orders", LeftColumn: "o_custkey", RightTable: "customer", RightColumn: "c_id"},
		},
	}
	if plain.Signature() == joined.Signature() {
		t.Fatalf("signature %q ignores the join", joined.Signature())
	}
	g.Generate([]*query.Query{plain}) // warm the memo with the join-free shape
	arms := g.Generate([]*query.Query{joined})
	for _, a := range arms {
		if a.Table == "orders" && a.Index.Key[0] == "o_custkey" {
			return
		}
	}
	t.Fatal("memo served join-free protos: no arm on the join column")
}

// randomQoISets returns n distinct QoI sets, the rounds of a seeded
// random TPC-DS sequence, with the schema they run on.
func randomQoISets(t *testing.T, n int) (*catalog.Schema, [][]*query.Query) {
	t.Helper()
	bench, err := workload.ByName("tpcds")
	if err != nil {
		t.Fatal(err)
	}
	schema := bench.NewSchema()
	db, err := datagen.Build(schema, datagen.Options{Seed: 1, ScaleFactor: 10, MaxStoredRows: 300})
	if err != nil {
		t.Fatal(err)
	}
	seq := workload.NewRandom(bench, db, 1, n)
	sets := make([][]*query.Query, n)
	for r := range sets {
		sets[r] = seq.Round(r + 1)
	}
	return schema, sets
}

func TestGenerateRemembersOneArmSet(t *testing.T) {
	// The generator remembers the arm set of the last QoI sequence only:
	// after each of several distinct sets it holds exactly the arms it
	// just returned, a replay hands out those same *Arm values, and the
	// first set is rebuilt rather than served from memory.
	schema, sets := randomQoISets(t, 4)
	g := NewArmGenerator(schema)
	var first []*Arm
	keys := map[string]bool{}
	for i, qs := range sets {
		arms := g.Generate(qs)
		if i == 0 {
			first = arms
		}
		if !slices.Equal(g.lastArms, arms) {
			t.Fatalf("set %d: the generator does not hold the arm set it just built", i)
		}
		if replay := g.Generate(qs); !slices.Equal(replay, arms) {
			t.Fatalf("set %d: the replay returned different arm values", i)
		}
		keys[g.lastKey] = true
	}
	if len(keys) != len(sets) || len(first) == 0 {
		t.Fatalf("fixture invalid: %d distinct QoI sets, %d arms in the first", len(keys), len(first))
	}
	if g.Generate(sets[0])[0] == first[0] {
		t.Fatal("the first QoI set was served from memory after others replaced it")
	}
}

func TestGenerateRebuildsEvictedSetEqual(t *testing.T) {
	// A, B, A: the second A is rebuilt after B replaced it, and must
	// equal the first in id, size, motivating and covered templates.
	schema, sets := randomQoISets(t, 2)
	g := NewArmGenerator(schema)
	a1 := g.Generate(sets[0])
	g.Generate(sets[1])
	a2 := g.Generate(sets[0])
	if len(a1) == 0 || len(a1) != len(a2) {
		t.Fatalf("rebuilt %d arms, want %d", len(a2), len(a1))
	}
	for i := range a1 {
		x, y := a1[i], a2[i]
		if x.ID() != y.ID() || x.SizeBytes != y.SizeBytes ||
			!slices.Equal(x.Queries, y.Queries) || !slices.Equal(x.CoveringFor, y.CoveringFor) {
			t.Fatalf("arm %d: rebuilt %s %d %v %v, first %s %d %v %v", i,
				y.ID(), y.SizeBytes, y.Queries, y.CoveringFor, x.ID(), x.SizeBytes, x.Queries, x.CoveringFor)
		}
	}
}

func TestPermutationsOfSubsets(t *testing.T) {
	got := permutationsOfSubsets([]string{"a", "b"})
	// a, a b, b, b a -> 4 entries
	if len(got) != 4 {
		t.Fatalf("got %d permutations: %v", len(got), got)
	}
	got3 := permutationsOfSubsets([]string{"a", "b", "c"})
	// P(3,1)+P(3,2)+P(3,3) = 3+6+6 = 15
	if len(got3) != 15 {
		t.Fatalf("got %d permutations for 3 cols", len(got3))
	}
}

func TestArmSizePositive(t *testing.T) {
	schema, _ := testdb.Build(1)
	g := NewArmGenerator(schema)
	for _, a := range g.Generate([]*query.Query{figure1Query()}) {
		if a.SizeBytes <= 0 {
			t.Fatalf("arm %s has non-positive size", a.ID())
		}
	}
}
