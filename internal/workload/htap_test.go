package workload

import (
	"reflect"
	"testing"

	"dbabandits/internal/datagen"
	"dbabandits/internal/query"
	"dbabandits/internal/storage"
)

func htapDB(t *testing.T, bench *Benchmark) *storage.Database {
	t.Helper()
	db, err := datagen.Build(bench.NewSchema(), datagen.Options{
		Seed: 7, ScaleFactor: 10, MaxStoredRows: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestFactTablesPicksLargeTablesOnly(t *testing.T) {
	cases := map[string][]string{
		"ssb":   {"lineorder"},
		"tpcds": {"catalog_sales", "store_sales", "web_sales"},
	}
	for name, want := range cases {
		bench, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		got := FactTables(htapDB(t, bench))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s fact tables = %v, want %v", name, got, want)
		}
	}
}

func TestHTAPAnalyticalSideMatchesStatic(t *testing.T) {
	bench, _ := ByName("ssb")
	db := htapDB(t, bench)
	h := NewHTAP(bench, db, 7, 6, HTAPOptions{})
	s := NewStatic(bench, db, 7, 6)
	if h.Rounds() != 6 {
		t.Fatalf("rounds = %d", h.Rounds())
	}
	for r := 1; r <= 6; r++ {
		if !reflect.DeepEqual(h.Round(r), s.Round(r)) {
			t.Fatalf("round %d analytical workload diverges from the static sequencer", r)
		}
	}
}

func TestHTAPUpdateCadenceAndDeterminism(t *testing.T) {
	bench, _ := ByName("tpcds")
	db := htapDB(t, bench)
	h := NewHTAP(bench, db, 7, 10, HTAPOptions{})
	if !h.UpdatesEnabled() {
		t.Fatal("updates disabled by default")
	}
	facts := map[string]bool{}
	for _, f := range FactTables(db) {
		facts[f] = true
	}
	var sawInsert, sawModify bool
	for r := 1; r <= 10; r++ {
		ups := h.UpdatesAt(r)
		if r%2 == 1 {
			if len(ups) != 0 {
				t.Fatalf("round %d: odd rounds must be analytical-only, got %d updates", r, len(ups))
			}
			continue
		}
		if len(ups) != 4 {
			t.Fatalf("round %d: got %d updates, want the default 4", r, len(ups))
		}
		for _, u := range ups {
			if !facts[u.Table] {
				t.Fatalf("round %d: update targets non-fact table %q", r, u.Table)
			}
			if u.Rows <= 0 {
				t.Fatalf("round %d: non-positive row volume %v", r, u.Rows)
			}
			tbl := db.MustTable(u.Table)
			if u.Rows > 0.02*tbl.LogicalRows() {
				t.Fatalf("round %d: volume %v exceeds htapMaxRowsFrac cap", r, u.Rows)
			}
			switch u.Kind {
			case query.UpdateInsert:
				sawInsert = true
				if len(u.Columns) != 0 {
					t.Fatalf("INSERT carries column list %v", u.Columns)
				}
			case query.UpdateModify:
				sawModify = true
				if len(u.Columns) == 0 || len(u.Columns) > 3 {
					t.Fatalf("UPDATE column count %d outside 1..3", len(u.Columns))
				}
			}
		}
		// Draws are a pure function of (seed, round): replays are
		// identical, which is what makes HTAP cells parallel-safe.
		if !reflect.DeepEqual(ups, h.UpdatesAt(r)) {
			t.Fatalf("round %d updates are not deterministic", r)
		}
	}
	if !sawInsert || !sawModify {
		t.Fatalf("want both statement kinds over 10 rounds: insert=%v modify=%v", sawInsert, sawModify)
	}
}

func TestHTAPDisabledUpdatesReducesToStatic(t *testing.T) {
	bench, _ := ByName("ssb")
	db := htapDB(t, bench)
	h := NewHTAP(bench, db, 7, 8, HTAPOptions{UpdateEvery: -1})
	if h.UpdatesEnabled() {
		t.Fatal("UpdateEvery < 0 must disable updates")
	}
	for r := 1; r <= 8; r++ {
		if ups := h.UpdatesAt(r); ups != nil {
			t.Fatalf("round %d: disabled sequencer issued updates %v", r, ups)
		}
	}
}

func TestUpdateTouches(t *testing.T) {
	ins := query.Update{Table: "t", Kind: query.UpdateInsert, Rows: 10}
	if !ins.Touches([]string{"a"}) {
		t.Fatal("INSERT must touch every index")
	}
	mod := query.Update{Table: "t", Kind: query.UpdateModify, Rows: 10, Columns: []string{"b"}}
	if mod.Touches([]string{"a", "c"}) {
		t.Fatal("UPDATE on disjoint columns must not touch")
	}
	if !mod.Touches([]string{"c", "b"}) {
		t.Fatal("UPDATE sharing a column must touch")
	}
}
