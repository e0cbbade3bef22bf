package engine

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dbabandits/internal/catalog"
	"dbabandits/internal/index"
	"dbabandits/internal/query"
	"dbabandits/internal/storage"
	"dbabandits/internal/testdb"
)

// oracleEdges are the equi-joins random plans draw from: the two foreign
// keys plus a many-to-many join between the dimensions.
var oracleEdges = [][4]string{
	{"orders", "o_custkey", "customer", "c_id"},
	{"orders", "o_partkey", "part", "p_id"},
	{"customer", "c_nation", "part", "p_brand"},
}

// oracleColumns are the filterable integer columns per table, with the
// value domain random predicates draw their bounds from.
var oracleColumns = map[string][]struct {
	name   string
	lo, hi int64
}{
	"customer": {{"c_id", 0, 999}, {"c_nation", 0, 24}, {"c_segment", 0, 4}},
	"part":     {{"p_id", 0, 799}, {"p_brand", 0, 24}, {"p_size", 1, 50}},
	"orders":   {{"o_date", 0, 2000}, {"o_status", 0, 49}, {"o_priority", 0, 49}, {"o_custkey", 0, 999}},
}

// randomFilters draws zero to two predicates on the table, of every
// operator.
func randomFilters(rng *rand.Rand, table string) []query.Predicate {
	var out []query.Predicate
	cols := oracleColumns[table]
	for n := rng.Intn(3); n > 0; n-- {
		c := cols[rng.Intn(len(cols))]
		a := c.lo + rng.Int63n(c.hi-c.lo+1)
		b := c.lo + rng.Int63n(c.hi-c.lo+1)
		if a > b {
			a, b = b, a
		}
		p := query.Predicate{Table: table, Column: c.name, Op: query.Op(rng.Intn(4)), Lo: a, Hi: b}
		if p.Op == query.OpEq {
			p.Hi = a
		}
		out = append(out, p)
	}
	return out
}

// randomAccess draws an access path on the table: a sequential scan or
// a secondary-index seek or index-only access whose key leads with
// lead (any filterable column when lead is empty).
func randomAccess(rng *rand.Rand, table, lead string, kinds []AccessKind) Access {
	kind := kinds[rng.Intn(len(kinds))]
	acc := Access{Table: table, Kind: kind}
	if kind != AccessIndexSeek && kind != AccessIndexOnly {
		return acc
	}
	cols := oracleColumns[table]
	if lead == "" {
		lead = cols[rng.Intn(len(cols))].name
	}
	key := []string{lead}
	if c := cols[rng.Intn(len(cols))].name; c != lead && rng.Intn(2) == 0 {
		key = append(key, c)
	}
	var include []string
	if rng.Intn(2) == 0 {
		include = []string{cols[rng.Intn(len(cols))].name}
	}
	acc.Index = index.New(table, key, include)
	acc.EqLen = rng.Intn(len(key) + 1)
	acc.HasRange = rng.Intn(2) == 0
	acc.Covering = kind == AccessIndexOnly || rng.Intn(2) == 0
	return acc
}

// randomPlan builds a well-formed plan of one to three join steps over
// the fixture: every step joins a table already in the pipeline to any
// fixture table (a table may join in twice) by hash or index-NL, along
// an edge no earlier step used, which keeps intermediates small.
func randomPlan(rng *rand.Rand) *Plan {
	tables := []string{"customer", "part", "orders"}
	driver := tables[rng.Intn(len(tables))]
	q := &query.Query{TemplateID: 1, Tables: []string{driver}, AggWidth: rng.Intn(4)}
	seen := map[string]bool{driver: true}
	p := &Plan{Query: q, Driver: randomAccess(rng, driver, "", []AccessKind{AccessSeqScan, AccessIndexSeek, AccessIndexOnly})}
	pipeline := []string{driver}
	used := make([]bool, len(oracleEdges))
	for n := 1 + rng.Intn(3); n > 0; n-- {
		type cand struct {
			edge int
			e    [4]string // oriented: pipeline side first
		}
		var cands []cand
		for i, e := range oracleEdges {
			if used[i] {
				continue
			}
			for _, t := range pipeline {
				if e[0] == t {
					cands = append(cands, cand{i, e})
				}
				if e[2] == t {
					cands = append(cands, cand{i, [4]string{e[2], e[3], e[0], e[1]}})
				}
			}
		}
		if len(cands) == 0 {
			break
		}
		c := cands[rng.Intn(len(cands))]
		used[c.edge] = true
		e := c.e
		step := JoinStep{
			Pred:       query.Join{LeftTable: e[0], LeftColumn: e[1], RightTable: e[2], RightColumn: e[3]},
			OuterTable: e[0], OuterColumn: e[1],
			InnerTable: e[2], InnerColumn: e[3],
		}
		if rng.Intn(2) == 0 {
			step.Algo = JoinHash
			step.Inner = randomAccess(rng, e[2], "", []AccessKind{AccessSeqScan, AccessIndexSeek, AccessIndexOnly})
		} else {
			step.Algo = JoinIndexNL
			step.Inner = randomAccess(rng, e[2], e[3], []AccessKind{AccessClusteredSeek, AccessIndexSeek, AccessIndexOnly})
		}
		p.Steps = append(p.Steps, step)
		pipeline = append(pipeline, e[2])
		if !seen[e[2]] {
			seen[e[2]] = true
			q.Tables = append(q.Tables, e[2])
		}
	}
	for _, t := range q.Tables {
		q.Filters = append(q.Filters, randomFilters(rng, t)...)
	}
	return p
}

// sameStats reports how got and want differ, bit for bit; "" when they
// agree.
func sameStats(got, want *ExecStats) string {
	switch {
	case math.Float64bits(got.TotalSec) != math.Float64bits(want.TotalSec):
		return "TotalSec"
	case math.Float64bits(got.OutRows) != math.Float64bits(want.OutRows):
		return "OutRows"
	case len(got.TableScanSec) != len(want.TableScanSec):
		return "TableScanSec size"
	case len(got.IndexAccessSec) != len(want.IndexAccessSec):
		return "IndexAccessSec size"
	case got.Plan != want.Plan:
		return "Plan"
	}
	for k, v := range want.TableScanSec {
		if g, ok := got.TableScanSec[k]; !ok || math.Float64bits(g) != math.Float64bits(v) {
			return "TableScanSec[" + k + "]"
		}
	}
	for k, v := range want.IndexAccessSec {
		g, ok := got.IndexAccessSec[k]
		if !ok || g.Table != v.Table || math.Float64bits(g.Sec) != math.Float64bits(v.Sec) {
			return "IndexAccessSec[" + k + "]"
		}
	}
	return ""
}

// TestExecuteMatchesReference holds Execute to the reference executor
// bit for bit over random plans: every driver access kind, hash and
// index-NL joins, one to three steps, repeated tables, every predicate
// operator, and tables whose row multiplier exceeds one.
func TestExecuteMatchesReference(t *testing.T) {
	_, db := testdb.BuildScaled(7, 2, 1500)
	cm := DefaultCostModel()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		p := randomPlan(rng)
		got, err := Execute(db, p, cm)
		want, errRef := executeRef(db, p, cm)
		if (err != nil) != (errRef != nil) {
			t.Fatalf("plan %d %s: error %v, reference error %v", i, p, err, errRef)
		}
		if err != nil {
			continue
		}
		if diff := sameStats(got, want); diff != "" {
			t.Fatalf("plan %d %s: %s differs from the reference", i, p, diff)
		}
	}
}

// fixtureTable builds a stored table of integer columns, named in
// order, whose row r holds cols[name](r).
func fixtureTable(name string, rows int, mult float64, cols map[string]func(r int) int64, order ...string) *storage.Table {
	meta := &catalog.Table{Name: name, BaseRows: int64(rows), RowCount: int64(float64(rows) * mult)}
	t := &storage.Table{Meta: meta, StoredRows: rows, Mult: mult}
	for _, c := range order {
		meta.Columns = append(meta.Columns, catalog.Column{Name: c, Kind: catalog.KindInt})
		col := make([]int64, rows)
		for r := range col {
			col[r] = cols[c](r)
		}
		t.Cols = append(t.Cols, col)
	}
	return t
}

// manyToManyDB is a fixture whose joins pass maxTuples twice. All 701
// rows of a and 401 of b share one join key, so a ⋈ b has 281,101
// tuples and is down-sampled by 2. a.v is the row id and c holds five
// rows for each v in 500..699, so the survivors join c into about 200k
// tuples, down-sampled again; d then keeps the tuples whose b.w is 0, 1
// or 2. Which tuples survive each sampling thus shows in the output.
func manyToManyDB() *storage.Database {
	a := fixtureTable("a", 701, 3, map[string]func(int) int64{
		"k": func(int) int64 { return 0 },
		"v": func(r int) int64 { return int64(r) },
	}, "k", "v")
	b := fixtureTable("b", 401, 1, map[string]func(int) int64{
		"k": func(int) int64 { return 0 },
		"w": func(r int) int64 { return int64(r % 5) },
	}, "k", "w")
	c := fixtureTable("c", 1000, 2, map[string]func(int) int64{
		"v": func(r int) int64 { return int64(500 + r%200) },
	}, "v")
	d := fixtureTable("d", 3, 1, map[string]func(int) int64{
		"w": func(r int) int64 { return int64(r) },
	}, "w")
	return &storage.Database{
		Schema: catalog.MustSchema("m2m", a.Meta, b.Meta, c.Meta, d.Meta),
		Tables: map[string]*storage.Table{"a": a, "b": b, "c": c, "d": d},
	}
}

// TestExecuteDownSamplesManyToMany drives the in-place down-sampling no
// benchmark workload reaches, twice in one plan, under both join
// algorithms. Execute must match the reference bit for bit.
func TestExecuteDownSamplesManyToMany(t *testing.T) {
	if 701*401 <= maxTuples || 701*401/2*5*200/701 <= maxTuples {
		t.Fatal("the fixture no longer passes maxTuples twice")
	}
	db := manyToManyDB()
	cm := DefaultCostModel()
	q := &query.Query{
		Tables: []string{"a", "b", "c", "d"},
		Filters: []query.Predicate{
			{Table: "b", Column: "w", Op: query.OpLt, Hi: 5},
			{Table: "c", Column: "v", Op: query.OpGt, Lo: 1},
		},
	}
	for _, algo := range []JoinAlgo{JoinHash, JoinIndexNL} {
		inner := func(table string) Access {
			if algo == JoinIndexNL {
				return Access{Table: table, Kind: AccessClusteredSeek}
			}
			return Access{Table: table, Kind: AccessSeqScan}
		}
		p := &Plan{
			Query:  q,
			Driver: Access{Table: "a", Kind: AccessSeqScan},
			Steps: []JoinStep{
				{OuterTable: "a", OuterColumn: "k", InnerTable: "b", InnerColumn: "k", Inner: inner("b"), Algo: algo},
				{OuterTable: "a", OuterColumn: "v", InnerTable: "c", InnerColumn: "v", Inner: inner("c"), Algo: algo},
				{OuterTable: "b", OuterColumn: "w", InnerTable: "d", InnerColumn: "w", Inner: inner("d"), Algo: algo},
			},
		}
		got, err := Execute(db, p, cm)
		if err != nil {
			t.Fatal(err)
		}
		want, err := executeRef(db, p, cm)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameStats(got, want); diff != "" {
			t.Fatalf("%s: %s differs from the reference", algo, diff)
		}
	}
}

// TestExecuteRepeatedTableUsesLatestSlot joins orders and customer in
// twice. The last step reads orders.o_custkey, which must come from the
// second orders row, as in the reference: the first one always leads
// back to the driver's (filtered) customer, the second to any.
func TestExecuteRepeatedTableUsesLatestSlot(t *testing.T) {
	_, db := testdb.BuildScaled(5, 2, 1500)
	cm := DefaultCostModel()
	q := &query.Query{
		Tables: []string{"customer", "orders", "part"},
		Filters: []query.Predicate{
			{Table: "customer", Column: "c_nation", Op: query.OpLt, Hi: 5},
		},
	}
	seq := func(table string) Access { return Access{Table: table, Kind: AccessSeqScan} }
	p := &Plan{
		Query:  q,
		Driver: seq("customer"),
		Steps: []JoinStep{
			{OuterTable: "customer", OuterColumn: "c_id", InnerTable: "orders", InnerColumn: "o_custkey", Inner: seq("orders"), Algo: JoinHash},
			{OuterTable: "orders", OuterColumn: "o_partkey", InnerTable: "part", InnerColumn: "p_id", Inner: seq("part"), Algo: JoinHash},
			{OuterTable: "part", OuterColumn: "p_id", InnerTable: "orders", InnerColumn: "o_partkey", Inner: seq("orders"), Algo: JoinHash},
			{OuterTable: "orders", OuterColumn: "o_custkey", InnerTable: "customer", InnerColumn: "c_id", Inner: seq("customer"), Algo: JoinHash},
		},
	}
	got, err := Execute(db, p, cm)
	if err != nil {
		t.Fatal(err)
	}
	want, err := executeRef(db, p, cm)
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameStats(got, want); diff != "" {
		t.Fatalf("%s differs from the reference", diff)
	}
}

// TestExecuteConcurrent runs Execute from eight goroutines over one
// shared database, as fleet tenants do, and compares every result with
// the serial one; under -race it also proves the scratch pool never
// hands one buffer to two calls.
func TestExecuteConcurrent(t *testing.T) {
	_, db := testdb.BuildScaled(3, 2, 1500)
	cm := DefaultCostModel()
	rng := rand.New(rand.NewSource(2))
	plans := make([]*Plan, 60)
	serial := make([]*ExecStats, len(plans))
	for i := range plans {
		plans[i] = randomPlan(rng)
		st, err := Execute(db, plans[i], cm)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = st
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := range plans {
				i := (n + g*7) % len(plans)
				st, err := Execute(db, plans[i], cm)
				if err != nil {
					t.Error(err)
					return
				}
				if diff := sameStats(st, serial[i]); diff != "" {
					t.Errorf("goroutine %d, plan %d: %s differs from the serial run", g, i, diff)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWarmExecuteAllocs pins a warm three-way join at the allocations
// of its result alone: the ExecStats and its two maps. Tuple buffers,
// the join lookup and predicate scratch come from the pool.
func TestWarmExecuteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not stable under the race detector")
	}
	_, db := testdb.BuildScaled(1, 2, 1500)
	q := &query.Query{
		Tables: []string{"customer", "orders", "part"},
		Filters: []query.Predicate{
			{Table: "customer", Column: "c_nation", Op: query.OpRange, Lo: 0, Hi: 9},
			{Table: "orders", Column: "o_date", Op: query.OpLt, Hi: 1500},
		},
	}
	ix := index.New("orders", []string{"o_custkey"}, nil)
	p := &Plan{
		Query:  q,
		Driver: Access{Table: "customer", Kind: AccessSeqScan},
		Steps: []JoinStep{
			{OuterTable: "customer", OuterColumn: "c_id", InnerTable: "orders", InnerColumn: "o_custkey",
				Inner: Access{Table: "orders", Kind: AccessIndexSeek, Index: ix, EqLen: 1}, Algo: JoinIndexNL},
			{OuterTable: "orders", OuterColumn: "o_partkey", InnerTable: "part", InnerColumn: "p_id",
				Inner: Access{Table: "part", Kind: AccessSeqScan}, Algo: JoinHash},
		},
	}
	cm := DefaultCostModel()
	run := func() {
		if _, err := Execute(db, p, cm); err != nil {
			t.Fatal(err)
		}
	}
	run() // grow the pooled scratch to this plan's footprint
	if got := testing.AllocsPerRun(20, run); got != 5 {
		t.Fatalf("warm 3-way Execute allocated %v times, want exactly 5 (the ExecStats, and each of its maps' header and table)", got)
	}
}

// wideKeyDB is a fixture whose join keys are spaced 10⁹ apart, far too
// wide for direct addressing, so every join probes a hashed lookup. No
// benchmark schema reaches that path. dim holds keys 0, 10⁹, ... with
// two filter columns; fact references them at random, plus keys no dim
// row holds, and carries a filter column of its own.
func wideKeyDB() *storage.Database {
	rng := rand.New(rand.NewSource(9))
	const spacing = 1_000_000_000
	dim := fixtureTable("dim", 400, 2, map[string]func(int) int64{
		"d_key": func(r int) int64 { return int64(r) * spacing },
		"d_grp": func(r int) int64 { return int64(r % 9) },
		"d_val": func(r int) int64 { return int64(rng.Intn(100)) },
	}, "d_key", "d_grp", "d_val")
	fact := fixtureTable("fact", 3000, 3, map[string]func(int) int64{
		"f_key": func(int) int64 { return int64(rng.Intn(450)) * spacing },
		"f_val": func(int) int64 { return int64(rng.Intn(100)) },
	}, "f_key", "f_val")
	return &storage.Database{
		Schema: catalog.MustSchema("wide", dim.Meta, fact.Meta),
		Tables: map[string]*storage.Table{"dim": dim, "fact": fact},
	}
}

// TestExecuteWideKeysMatchesReference runs hash and index-NL joins in
// both directions over hashed lookups, filtered and unfiltered, and
// holds each to the reference executor bit for bit.
func TestExecuteWideKeysMatchesReference(t *testing.T) {
	db := wideKeyDB()
	for _, c := range [][2]string{{"dim", "d_key"}, {"fact", "f_key"}} {
		// storage addresses a column directly only when its value span
		// is at most four times its rows.
		col := db.MustTable(c[0]).MustColumn(c[1])
		if uint64(slices.Max(col)-slices.Min(col)) <= 4*uint64(len(col)) {
			t.Fatalf("%s.%s: the fixture no longer reaches the hashed lookup", c[0], c[1])
		}
	}
	cm := DefaultCostModel()
	filters := [][]query.Predicate{
		nil,
		{{Table: "dim", Column: "d_val", Op: query.OpLt, Hi: 40}},
		{{Table: "fact", Column: "f_val", Op: query.OpGt, Lo: 70}},
		{
			{Table: "dim", Column: "d_grp", Op: query.OpEq, Lo: 3},
			{Table: "fact", Column: "f_val", Op: query.OpRange, Lo: 10, Hi: 60},
		},
	}
	ix := index.New("fact", []string{"f_key"}, nil)
	for fi, f := range filters {
		q := &query.Query{Tables: []string{"dim", "fact"}, Filters: f}
		for _, algo := range []JoinAlgo{JoinHash, JoinIndexNL} {
			dimInner := Access{Table: "dim", Kind: AccessSeqScan}
			factInner := Access{Table: "fact", Kind: AccessSeqScan}
			if algo == JoinIndexNL {
				dimInner = Access{Table: "dim", Kind: AccessClusteredSeek}
				factInner = Access{Table: "fact", Kind: AccessIndexSeek, Index: ix, EqLen: 1}
			}
			plans := []*Plan{
				{Query: q, Driver: Access{Table: "fact", Kind: AccessSeqScan}, Steps: []JoinStep{
					{OuterTable: "fact", OuterColumn: "f_key", InnerTable: "dim", InnerColumn: "d_key", Inner: dimInner, Algo: algo},
				}},
				{Query: q, Driver: Access{Table: "dim", Kind: AccessSeqScan}, Steps: []JoinStep{
					{OuterTable: "dim", OuterColumn: "d_key", InnerTable: "fact", InnerColumn: "f_key", Inner: factInner, Algo: algo},
				}},
			}
			for _, p := range plans {
				got, err := Execute(db, p, cm)
				if err != nil {
					t.Fatal(err)
				}
				want, err := executeRef(db, p, cm)
				if err != nil {
					t.Fatal(err)
				}
				if diff := sameStats(got, want); diff != "" {
					t.Fatalf("filters %d, %s: %s differs from the reference", fi, p, diff)
				}
				if got.OutRows == 0 && fi == 0 {
					t.Fatalf("%s: an unfiltered join matched nothing", p)
				}
			}
		}
	}
}

// TestWarmExecuteSeekDriverAllocs pins a warm join whose driver is an
// index seek, priced through CountRows, at the allocations of its
// result alone, like TestWarmExecuteAllocs.
func TestWarmExecuteSeekDriverAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not stable under the race detector")
	}
	_, db := testdb.BuildScaled(1, 2, 1500)
	q := &query.Query{
		Tables: []string{"orders", "customer"},
		Filters: []query.Predicate{
			{Table: "orders", Column: "o_date", Op: query.OpRange, Lo: 100, Hi: 900},
			{Table: "orders", Column: "o_status", Op: query.OpLt, Hi: 3},
			{Table: "customer", Column: "c_segment", Op: query.OpEq, Lo: 2},
		},
	}
	ix := index.New("orders", []string{"o_date"}, nil)
	p := &Plan{
		Query:  q,
		Driver: Access{Table: "orders", Kind: AccessIndexSeek, Index: ix, HasRange: true},
		Steps: []JoinStep{
			{OuterTable: "orders", OuterColumn: "o_custkey", InnerTable: "customer", InnerColumn: "c_id",
				Inner: Access{Table: "customer", Kind: AccessSeqScan}, Algo: JoinHash},
		},
	}
	cm := DefaultCostModel()
	run := func() {
		if _, err := Execute(db, p, cm); err != nil {
			t.Fatal(err)
		}
	}
	run() // grow the pooled scratch and build the join lookup
	if got := testing.AllocsPerRun(20, run); got != 5 {
		t.Fatalf("warm index-seek-driven Execute allocated %v times, want exactly 5 (the ExecStats, and each of its maps' header and table)", got)
	}
}
