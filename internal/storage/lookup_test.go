package storage

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dbabandits/internal/catalog"
)

// match returns the rows holding v through Bucket and Rows, nil when
// none.
func match(l *Lookup, v int64) []int32 {
	if b := l.Bucket(v); b >= 0 {
		return l.Rows(b)
	}
	return nil
}

// TestLookupMatchesMap builds lookups from value domains narrow (many
// rows per value, direct offset), sparse (keys far apart, hashed),
// sequential keys with gaps and at the int64 extremes, and checks every
// stored value, and values the column never holds (below its minimum,
// above its maximum and in its gaps), against a map of row lists.
func TestLookupMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(2000)
		if trial%2 == 1 {
			n = rng.Intn(8)
		}
		col := make([]int64, n)
		for i := range col {
			switch trial % 4 {
			case 0:
				col[i] = int64(rng.Intn(20)) - 10
			case 1:
				col[i] = rng.Int63n(1<<40) - 1<<39
			case 2:
				// Keys 0, 3, 6, ...: dense, with a gap between each.
				col[i] = 3 * int64(rng.Intn(n+1))
			default:
				col[i] = []int64{math.MinInt64, math.MaxInt64, -1, 0, 1 << 62}[rng.Intn(5)]
			}
		}
		want := map[int64][]int32{}
		for r, v := range col {
			want[v] = append(want[v], int32(r))
		}
		l := newLookup(col)
		if n > 0 && trial%4 == 0 && l.table != nil {
			t.Fatalf("trial %d: a 20-value domain over %d rows is not direct-offset", trial, n)
		}
		if slices.Contains(col, math.MinInt64) && slices.Contains(col, math.MaxInt64) && l.table == nil {
			t.Fatalf("trial %d: values at the int64 extremes read as dense", trial)
		}
		probes := []int64{math.MinInt64, math.MaxInt64, 0, 1, 7, -7}
		if n > 0 {
			lo, hi := slices.Min(col), slices.Max(col)
			probes = append(probes, lo-1, hi+1, lo+1, hi-1, lo+hi/2)
		}
		for _, v := range append(probes, col...) {
			if got := match(l, v); !slices.Equal(got, want[v]) {
				t.Fatalf("trial %d (dense %v): value %d matches %v, want %v", trial, l.table == nil, v, got, want[v])
			}
		}
		// The buckets partition the rows.
		seen := 0
		for b := 0; b < l.Buckets(); b++ {
			seen += len(l.Rows(b))
		}
		if seen != n || (l.table != nil && l.Buckets() != len(want)) {
			t.Fatalf("trial %d: %d buckets hold %d rows; want %d rows in %d values", trial, l.Buckets(), seen, n, len(want))
		}
	}
}

// TestLookupDenseRule pins where direct addressing stops: a span of up
// to denseSpanPerRow per row is dense, one more is hashed, and spans
// whose signed difference overflows int64 are hashed.
func TestLookupDenseRule(t *testing.T) {
	for _, c := range []struct {
		col   []int64
		dense bool
	}{
		{[]int64{5}, true},
		{[]int64{0, 2 * denseSpanPerRow}, true},
		{[]int64{0, 2*denseSpanPerRow + 1}, false},
		{[]int64{math.MinInt64, math.MaxInt64}, false},
		{[]int64{-1, math.MaxInt64}, false},
		{[]int64{math.MinInt64, 1}, false},
		{[]int64{math.MaxInt64, math.MaxInt64 - 1}, true},
		{[]int64{math.MinInt64, math.MinInt64 + 1}, true},
		{nil, true},
	} {
		l := newLookup(c.col)
		if (l.table == nil) != c.dense {
			t.Errorf("%v: dense %v, want %v", c.col, l.table == nil, c.dense)
		}
		for r, v := range c.col {
			if got := match(l, v); !slices.Contains(got, int32(r)) {
				t.Errorf("%v: value %d matches %v, missing row %d", c.col, v, got, r)
			}
		}
	}
}

// lookupFixture is a database of two tables with three join columns
// each, one of them keyed 10⁹ apart so that its lookup is hashed.
func lookupFixture() *Database {
	mk := func(name string, rows int) *Table {
		meta := &catalog.Table{Name: name, BaseRows: int64(rows), RowCount: int64(rows)}
		tbl := &Table{Meta: meta, StoredRows: rows, Mult: 1}
		for _, c := range []struct {
			name string
			val  func(r int) int64
		}{
			{"id", func(r int) int64 { return int64(r + 1) }},
			{"grp", func(r int) int64 { return int64(r % 7) }},
			{"wide", func(r int) int64 { return int64(r%50) * 1_000_000_000 }},
		} {
			meta.Columns = append(meta.Columns, catalog.Column{Name: c.name, Kind: catalog.KindInt})
			col := make([]int64, rows)
			for r := range col {
				col[r] = c.val(r)
			}
			tbl.Cols = append(tbl.Cols, col)
		}
		return tbl
	}
	a, b := mk("a", 300), mk("b", 500)
	return &Database{
		Schema: catalog.MustSchema("lookup", a.Meta, b.Meta),
		Tables: map[string]*Table{"a": a, "b": b},
	}
}

// TestLookupConcurrentFirstProbes makes the first probes of a fresh
// database from eight goroutines at once. Every goroutine must get the
// same lookup for a (table, column), built once; under -race this also
// checks the lazy build publishes safely.
func TestLookupConcurrentFirstProbes(t *testing.T) {
	db := lookupFixture()
	type key struct{ table, column string }
	var keys []key
	for _, tname := range []string{"a", "b"} {
		for _, c := range []string{"id", "grp", "wide"} {
			keys = append(keys, key{tname, c})
		}
	}
	const goroutines = 8
	got := make([][]*Lookup, goroutines)
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := 0; g < goroutines; g++ {
		got[g] = make([]*Lookup, len(keys))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start.Wait()
			for i := range keys {
				k := keys[(i+g)%len(keys)]
				l, ok := db.MustTable(k.table).Lookup(k.column)
				if !ok {
					t.Errorf("no lookup for %s.%s", k.table, k.column)
					return
				}
				if len(match(l, db.MustTable(k.table).MustColumn(k.column)[0])) == 0 {
					t.Errorf("%s.%s: row 0's value matches nothing", k.table, k.column)
				}
				got[g][(i+g)%len(keys)] = l
			}
		}(g)
	}
	start.Done()
	wg.Wait()
	for i, k := range keys {
		want, _ := db.MustTable(k.table).Lookup(k.column)
		for g := range got {
			if got[g][i] != want {
				t.Fatalf("goroutine %d got another %s.%s lookup than the table keeps", g, k.table, k.column)
			}
		}
	}
	if l, _ := db.MustTable("b").Lookup("wide"); l.table == nil {
		t.Fatal("b.wide, keyed 1e9 apart, should be hashed")
	}
	if _, ok := db.MustTable("a").Lookup("ghost"); ok {
		t.Fatal("a lookup on a missing column")
	}
}
