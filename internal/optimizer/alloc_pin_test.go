package optimizer

import (
	"testing"

	"dbabandits/internal/engine"
	"dbabandits/internal/index"
	"dbabandits/internal/query"
	"dbabandits/internal/testdb"
)

// The plan-cache allocation pins below assert exact allocation counts,
// which the race detector's instrumentation perturbs; they are skipped
// under -race.

// TestWarmHitAllocs pins three fingerprint hits at zero allocations: the
// same Config re-priced unchanged; two Configs whose relevant indexes are
// the same priced alternately, so that every call screens a table whose
// index set changed; and fresh clones of one Config, each priced once, as
// PDTool prices its per-candidate trial configurations.
func TestWarmHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not stable under the race detector")
	}
	schema, _ := testdb.Build(1)
	o := New(schema, engine.DefaultCostModel())
	q := cacheTestQueries()[4] // orders ⋈ customer ⋈ part
	a := index.NewConfig()
	a.Add(index.New("orders", []string{"o_custkey"}, []string{"o_total"}))
	b := a.Clone()
	b.Add(index.New("orders", []string{"o_priority"}, nil)) // irrelevant to q
	for _, cfg := range []*index.Config{a, b} {
		if _, err := o.ChoosePlan(q, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, func() { o.ChoosePlan(q, a) }); got != 0 {
		t.Fatalf("unchanged-config hit allocated %v times, want 0", got)
	}
	flip := false
	alternate := func() {
		cfg := a
		if flip = !flip; flip {
			cfg = b
		}
		o.ChoosePlan(q, cfg)
	}
	if got := testing.AllocsPerRun(100, alternate); got != 0 {
		t.Fatalf("hit after a rescreen allocated %v times, want 0", got)
	}
	// AllocsPerRun makes one warm-up call before its runs.
	clones := make([]*index.Config, 101)
	for i := range clones {
		clones[i] = a.Clone()
	}
	next := 0
	fresh := func() {
		o.ChoosePlan(q, clones[next])
		next++
	}
	if got := testing.AllocsPerRun(100, fresh); got != 0 {
		t.Fatalf("hit under an unseen equal Config allocated %v times, want 0", got)
	}
	if st := o.CacheStats(); st.Misses != 1 {
		t.Fatalf("hits re-planned: %+v", st)
	}
}

// TestReplanAllocs pins a ChoosePlan miss on an existing entry — a new
// relevant index on one table — at exactly 3 allocations: the returned
// plan, its Steps and the plan's fingerprint key. The entry's join
// orders are recorded by the warm-up call, so the measured misses replay
// them; the rescreen reuses the table's relevant-set buffers, and
// plan-map growth amortises below one per call.
func TestReplanAllocs(t *testing.T) {
	testMissAllocs(t, func(o *Optimizer, q *query.Query, cfg *index.Config) error {
		_, err := o.ChoosePlan(q, cfg)
		return err
	}, 3)
}

// TestWhatIfMissAllocs pins a WhatIfCost miss on an entry whose join
// orders are recorded at exactly 1 allocation, the fingerprint key: it
// prices a cost and builds no plan.
func TestWhatIfMissAllocs(t *testing.T) {
	testMissAllocs(t, func(o *Optimizer, q *query.Query, cfg *index.Config) error {
		_, err := o.WhatIfCost(q, cfg)
		return err
	}, 1)
}

// testMissAllocs prices a 3-way join once with no indexes, which builds
// its entry, then under one new configuration per call, and pins the
// allocations of the misses after AllocsPerRun's warm-up call (the
// entry's second search, which records its join orders).
func testMissAllocs(t *testing.T, price func(*Optimizer, *query.Query, *index.Config) error, want float64) {
	t.Helper()
	if raceEnabled {
		t.Skip("alloc counts are not stable under the race detector")
	}
	schema, _ := testdb.Build(1)
	o := New(schema, engine.DefaultCostModel())
	q := cacheTestQueries()[4] // orders ⋈ customer ⋈ part
	// Every config holds one orders index led by a join column: relevant
	// (an index-NL inner), and distinct, so each call is a miss.
	others := []string{"o_id", "o_date", "o_status", "o_priority", "o_total", "o_comment"}
	var cfgs []*index.Config
	for _, lead := range []string{"o_custkey", "o_partkey"} {
		for _, c1 := range others {
			for _, c2 := range append([]string{""}, others...) {
				key := []string{lead, c1}
				if c2 == c1 {
					continue
				}
				if c2 != "" {
					key = append(key, c2)
				}
				cfg := index.NewConfig()
				cfg.Add(index.New("orders", key, nil))
				cfgs = append(cfgs, cfg)
			}
		}
	}
	const runs = 50
	if len(cfgs) < runs+1 {
		t.Fatalf("only %d distinct configs", len(cfgs))
	}
	if err := price(o, q, nil); err != nil { // build the entry
		t.Fatal(err)
	}
	next := 0
	miss := func() {
		if err := price(o, q, cfgs[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	if got := testing.AllocsPerRun(runs, miss); got != want {
		t.Fatalf("miss under a new relevant set allocated %v times, want %v", got, want)
	}
	if st := o.CacheStats(); st.Misses != runs+2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want %d misses and no hits", st, runs+2)
	}
	orders := o.cache.cur[q].orders
	if orders == nil {
		t.Fatal("join orders not recorded")
	}
	for k, d := range orders {
		if d.tied {
			t.Fatalf("driver %d is tied, so its misses searched instead of replaying", k)
		}
	}
}
