package index

import (
	"testing"
	"testing/quick"

	"dbabandits/internal/catalog"
	"dbabandits/internal/query"
)

func ordersMeta() *catalog.Table {
	t := &catalog.Table{
		Name:     "orders",
		BaseRows: 1000,
		RowCount: 1000,
		Columns: []catalog.Column{
			{Name: "o_id", Kind: catalog.KindInt},
			{Name: "o_custkey", Kind: catalog.KindInt},
			{Name: "o_date", Kind: catalog.KindDate},
			{Name: "o_total", Kind: catalog.KindDecimal},
			{Name: "o_comment", Kind: catalog.KindString},
		},
	}
	return t
}

func TestNewNormalisesIncludes(t *testing.T) {
	ix := New("orders", []string{"o_custkey"}, []string{"o_total", "o_custkey", "o_total", "o_date"})
	if len(ix.Include) != 2 || ix.Include[0] != "o_date" || ix.Include[1] != "o_total" {
		t.Fatalf("includes = %v", ix.Include)
	}
}

func TestID(t *testing.T) {
	ix := New("orders", []string{"o_custkey", "o_date"}, []string{"o_total"})
	want := "orders(o_custkey,o_date) INCLUDE (o_total)"
	if ix.ID() != want {
		t.Fatalf("id = %q", ix.ID())
	}
	plain := New("orders", []string{"o_date"}, nil)
	if plain.ID() != "orders(o_date)" {
		t.Fatalf("id = %q", plain.ID())
	}
	if plain.String() != plain.ID() {
		t.Fatal("String != ID")
	}
}

func TestHasColumnAndKeyPosition(t *testing.T) {
	ix := New("orders", []string{"o_custkey", "o_date"}, []string{"o_total"})
	if !ix.HasColumn("o_custkey") || !ix.HasColumn("o_total") || ix.HasColumn("o_comment") {
		t.Fatal("HasColumn wrong")
	}
	if ix.KeyPosition("o_date") != 1 || ix.KeyPosition("o_total") != -1 {
		t.Fatal("KeyPosition wrong")
	}
}

func TestSizeBytes(t *testing.T) {
	meta := ordersMeta()
	ix := New("orders", []string{"o_custkey"}, nil)
	// (8 ptr + 8 key) * 1000 * 1.35 = 21600
	if got := ix.SizeBytes(meta); got != 21600 {
		t.Fatalf("size = %d", got)
	}
	wide := New("orders", []string{"o_comment"}, nil) // 24-byte strings
	if wide.SizeBytes(meta) <= ix.SizeBytes(meta) {
		t.Fatal("wider column should produce a bigger index")
	}
}

func TestValid(t *testing.T) {
	meta := ordersMeta()
	good := New("orders", []string{"o_custkey"}, []string{"o_total"})
	if err := good.Valid(meta); err != nil {
		t.Fatalf("valid index rejected: %v", err)
	}
	cases := []*Index{
		New("lineitem", []string{"l_qty"}, nil),              // wrong table
		New("orders", nil, nil),                              // empty key
		{Table: "orders", Key: []string{"o_date", "o_date"}}, // dup key
		New("orders", []string{"ghost"}, nil),                // missing column
	}
	for i, ix := range cases {
		if err := ix.Valid(meta); err == nil {
			t.Fatalf("case %d: invalid index accepted: %s", i, ix.ID())
		}
	}
}

func TestSeekPrefix(t *testing.T) {
	ix := New("orders", []string{"o_custkey", "o_date", "o_total"}, nil)
	preds := []query.Predicate{
		{Table: "orders", Column: "o_custkey", Op: query.OpEq, Lo: 1, Hi: 1},
		{Table: "orders", Column: "o_date", Op: query.OpRange, Lo: 0, Hi: 9},
	}
	eqLen, hasRange := ix.SeekPrefix(preds)
	if eqLen != 1 || !hasRange {
		t.Fatalf("eqLen=%d hasRange=%v", eqLen, hasRange)
	}

	// both leading columns equality-bound
	preds2 := []query.Predicate{
		{Table: "orders", Column: "o_custkey", Op: query.OpEq, Lo: 1, Hi: 1},
		{Table: "orders", Column: "o_date", Op: query.OpEq, Lo: 5, Hi: 5},
	}
	eqLen, hasRange = ix.SeekPrefix(preds2)
	if eqLen != 2 || hasRange {
		t.Fatalf("eqLen=%d hasRange=%v", eqLen, hasRange)
	}

	// predicate on non-leading column only: no prefix
	preds3 := []query.Predicate{
		{Table: "orders", Column: "o_date", Op: query.OpEq, Lo: 5, Hi: 5},
	}
	eqLen, hasRange = ix.SeekPrefix(preds3)
	if eqLen != 0 || hasRange {
		t.Fatalf("non-prefix: eqLen=%d hasRange=%v", eqLen, hasRange)
	}

	// other table's predicates are ignored
	preds4 := []query.Predicate{
		{Table: "customer", Column: "o_custkey", Op: query.OpEq, Lo: 1, Hi: 1},
	}
	if e, r := ix.SeekPrefix(preds4); e != 0 || r {
		t.Fatalf("cross-table: eqLen=%d hasRange=%v", e, r)
	}
}

func TestCoversQueryOn(t *testing.T) {
	q := &query.Query{
		Tables: []string{"orders"},
		Filters: []query.Predicate{
			{Table: "orders", Column: "o_date", Op: query.OpRange, Lo: 1, Hi: 2},
		},
		Joins: []query.Join{
			{LeftTable: "orders", LeftColumn: "o_custkey", RightTable: "customer", RightColumn: "c_id"},
		},
		Payload: []query.ColumnRef{{Table: "orders", Column: "o_total"}},
	}
	covering := New("orders", []string{"o_date"}, []string{"o_custkey", "o_total"})
	if !covering.CoversQueryOn(q, "orders") {
		t.Fatal("covering index not recognised")
	}
	partial := New("orders", []string{"o_date"}, []string{"o_total"})
	if partial.CoversQueryOn(q, "orders") {
		t.Fatal("missing join column but reported covering")
	}
	other := New("customer", []string{"c_id"}, nil)
	if other.CoversQueryOn(q, "orders") {
		t.Fatal("wrong-table index reported covering")
	}
}

func TestSubsumedBy(t *testing.T) {
	a := New("orders", []string{"o_custkey"}, nil)
	b := New("orders", []string{"o_custkey", "o_date"}, nil)
	if !a.SubsumedBy(b) {
		t.Fatal("prefix index should be subsumed")
	}
	if b.SubsumedBy(a) {
		t.Fatal("longer index subsumed by shorter")
	}
	c := New("orders", []string{"o_date", "o_custkey"}, nil)
	if a.SubsumedBy(c) {
		t.Fatal("non-prefix order should not subsume")
	}
	withInc := New("orders", []string{"o_custkey"}, []string{"o_total"})
	if withInc.SubsumedBy(b) {
		t.Fatal("include column missing from subsumer")
	}
	bInc := New("orders", []string{"o_custkey", "o_date"}, []string{"o_total"})
	if !withInc.SubsumedBy(bInc) {
		t.Fatal("include column present in subsumer key/includes")
	}
	if a.SubsumedBy(New("lineitem", []string{"o_custkey"}, nil)) {
		t.Fatal("cross-table subsumption")
	}
}

func TestConfigAddDrop(t *testing.T) {
	c := NewConfig()
	a := New("orders", []string{"o_custkey"}, nil)
	if !c.Add(a) {
		t.Fatal("first add failed")
	}
	if c.Add(New("orders", []string{"o_custkey"}, nil)) {
		t.Fatal("duplicate add succeeded")
	}
	if c.Len() != 1 || !c.Has(a.ID()) {
		t.Fatal("config state wrong after add")
	}
	if got, ok := c.Get(a.ID()); !ok || got.ID() != a.ID() {
		t.Fatal("Get failed")
	}
	if !c.Drop(a.ID()) || c.Len() != 0 {
		t.Fatal("drop failed")
	}
	if c.Drop(a.ID()) {
		t.Fatal("double drop succeeded")
	}
	if len(c.OnTable("orders")) != 0 {
		t.Fatal("byTable not cleaned up")
	}
}

func TestConfigCloneIndependent(t *testing.T) {
	c := NewConfig()
	c.Add(New("orders", []string{"o_custkey"}, nil))
	d := c.Clone()
	d.Add(New("orders", []string{"o_date"}, nil))
	if c.Len() != 1 || d.Len() != 2 {
		t.Fatalf("clone not independent: %d, %d", c.Len(), d.Len())
	}
}

func TestConfigDiff(t *testing.T) {
	old := NewConfig()
	old.Add(New("orders", []string{"o_custkey"}, nil))
	next := old.Clone()
	added := New("orders", []string{"o_date"}, nil)
	next.Add(added)
	diff := next.Diff(old)
	if len(diff) != 1 || diff[0].ID() != added.ID() {
		t.Fatalf("diff = %v", diff)
	}
	if got := next.Diff(nil); len(got) != 2 {
		t.Fatalf("diff vs nil = %d indexes", len(got))
	}
}

func TestConfigSizeBytes(t *testing.T) {
	schema := catalog.MustSchema("s", ordersMeta())
	c := NewConfig()
	a := New("orders", []string{"o_custkey"}, nil)
	b := New("orders", []string{"o_date"}, []string{"o_total"})
	c.Add(a)
	c.Add(b)
	meta := schema.MustTable("orders")
	want := a.SizeBytes(meta) + b.SizeBytes(meta)
	if got := c.SizeBytes(schema); got != want {
		t.Fatalf("config size = %d, want %d", got, want)
	}
}

func TestConfigDeterministicOrder(t *testing.T) {
	c := NewConfig()
	c.Add(New("orders", []string{"o_date"}, nil))
	c.Add(New("orders", []string{"o_custkey"}, nil))
	all := c.All()
	if len(all) != 2 || all[0].ID() > all[1].ID() {
		t.Fatalf("All not sorted: %v", c.IDs())
	}
	ids := c.IDs()
	if ids[0] != "orders(o_custkey)" {
		t.Fatalf("ids = %v", ids)
	}
}

// Property: subsumption is reflexive and antisymmetric up to equality.
func TestQuickSubsumptionPartialOrder(t *testing.T) {
	cols := []string{"a", "b", "c", "d"}
	mk := func(n uint8) *Index {
		k := 1 + int(n)%3
		key := cols[:k]
		return New("t", key, nil)
	}
	f := func(x, y uint8) bool {
		a, b := mk(x), mk(y)
		if !a.SubsumedBy(a) {
			return false
		}
		if a.SubsumedBy(b) && b.SubsumedBy(a) {
			return a.ID() == b.ID()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: SeekPrefix eqLen never exceeds number of equality predicates
// on the table nor the key length.
func TestQuickSeekPrefixBounds(t *testing.T) {
	cols := []string{"a", "b", "c", "d", "e"}
	f := func(keyN, eqN uint8) bool {
		k := 1 + int(keyN)%4
		ix := New("t", cols[:k], nil)
		n := int(eqN) % 5
		var preds []query.Predicate
		for i := 0; i < n; i++ {
			preds = append(preds, query.Predicate{Table: "t", Column: cols[i%5], Op: query.OpEq})
		}
		eqLen, _ := ix.SeekPrefix(preds)
		return eqLen <= n && eqLen <= k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConfigTableSig(t *testing.T) {
	c := NewConfig()
	if c.TableSig("orders") != "" {
		t.Fatal("empty table sig non-empty")
	}
	a := New("orders", []string{"o_custkey"}, nil)
	b := New("orders", []string{"o_date"}, nil)
	other := New("customer", []string{"c_nation"}, nil)
	c.Add(a)
	c.Add(b)
	c.Add(other)
	sig := c.TableSig("orders")
	if sig == "" || sig == c.TableSig("customer") {
		t.Fatalf("bad sig %q", sig)
	}
	if c.TableSig("orders") != sig {
		t.Fatal("memoised sig unstable")
	}

	// Same content in a different Config (built in a different order)
	// yields the same signature.
	d := NewConfig()
	d.Add(b)
	d.Add(a)
	if d.TableSig("orders") != sig {
		t.Fatalf("order-dependent sig: %q vs %q", d.TableSig("orders"), sig)
	}

	// Mutating one table invalidates only that table's signature.
	custSig := c.TableSig("customer")
	c.Drop(b.ID())
	if c.TableSig("orders") == sig {
		t.Fatal("sig unchanged after drop")
	}
	if c.TableSig("customer") != custSig {
		t.Fatal("unrelated table sig changed")
	}
	c.Add(b)
	if c.TableSig("orders") != sig {
		t.Fatal("sig not restored after re-add")
	}

	var nilCfg *Config
	if nilCfg.TableSig("orders") != "" {
		t.Fatal("nil Config sig non-empty")
	}
}

func TestConfigTableSigConcurrentReaders(t *testing.T) {
	c := NewConfig()
	c.Add(New("orders", []string{"o_custkey"}, nil))
	c.Add(New("orders", []string{"o_date"}, nil))
	want := c.TableSig("orders")
	c.Drop(New("orders", []string{"o_date"}, nil).ID())
	c.Add(New("orders", []string{"o_date"}, nil)) // sig recomputes lazily
	done := make(chan string, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- c.TableSig("orders") }()
	}
	for i := 0; i < 8; i++ {
		if got := <-done; got != want {
			t.Fatalf("concurrent sig %q, want %q", got, want)
		}
	}
}
