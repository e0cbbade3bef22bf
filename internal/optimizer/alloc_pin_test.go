package optimizer

import (
	"testing"

	"dbabandits/internal/engine"
	"dbabandits/internal/index"
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

// TestReplanAllocs pins a miss on an existing entry — a new relevant
// index on one table — at exactly 3 allocations: the returned plan, its
// Steps and the plan's fingerprint key. The rescreen reuses the table's
// relevant-set buffers, and plan-map growth amortises below one per call.
func TestReplanAllocs(t *testing.T) {
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
	if _, err := o.ChoosePlan(q, nil); err != nil { // build the entry
		t.Fatal(err)
	}
	next := 0
	replan := func() {
		if _, err := o.ChoosePlan(q, cfgs[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	if got := testing.AllocsPerRun(runs, replan); got != 3 {
		t.Fatalf("re-plan under a new relevant set allocated %v times, want 3", got)
	}
	if st := o.CacheStats(); st.Misses != runs+2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want %d misses and no hits", st, runs+2)
	}
}
