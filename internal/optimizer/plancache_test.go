package optimizer

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dbabandits/internal/engine"
	"dbabandits/internal/index"
	"dbabandits/internal/query"
	"dbabandits/internal/testdb"
)

// cacheTestQueries is a workload spanning the planner's decision space:
// single-table scans, seekable filters, covering opportunities, and
// 2-/3-way joins where both hash and index-NL can win.
func cacheTestQueries() []*query.Query {
	return []*query.Query{
		{
			TemplateID: 1,
			Tables:     []string{"orders"},
			Filters: []query.Predicate{
				{Table: "orders", Column: "o_date", Op: query.OpRange, Lo: 100, Hi: 400},
			},
			Payload: []query.ColumnRef{{Table: "orders", Column: "o_total"}},
		},
		{
			TemplateID: 2,
			Tables:     []string{"orders"},
			Filters: []query.Predicate{
				{Table: "orders", Column: "o_custkey", Op: query.OpEq, Lo: 17, Hi: 17},
				{Table: "orders", Column: "o_date", Op: query.OpRange, Lo: 0, Hi: 900},
			},
			Payload: []query.ColumnRef{{Table: "orders", Column: "o_total"}},
		},
		{
			TemplateID: 3,
			Tables:     []string{"customer"},
			Filters: []query.Predicate{
				{Table: "customer", Column: "c_segment", Op: query.OpEq, Lo: 2, Hi: 2},
			},
			Payload: []query.ColumnRef{{Table: "customer", Column: "c_name"}},
		},
		{
			TemplateID: 4,
			Tables:     []string{"orders", "customer"},
			Filters: []query.Predicate{
				{Table: "customer", Column: "c_nation", Op: query.OpEq, Lo: 3, Hi: 3},
			},
			Joins: []query.Join{
				{LeftTable: "orders", LeftColumn: "o_custkey", RightTable: "customer", RightColumn: "c_id"},
			},
			Payload: []query.ColumnRef{{Table: "orders", Column: "o_total"}},
		},
		{
			TemplateID: 5,
			Tables:     []string{"orders", "customer", "part"},
			Filters: []query.Predicate{
				{Table: "customer", Column: "c_nation", Op: query.OpEq, Lo: 7, Hi: 7},
				{Table: "part", Column: "p_size", Op: query.OpRange, Lo: 1, Hi: 15},
			},
			Joins: []query.Join{
				{LeftTable: "orders", LeftColumn: "o_custkey", RightTable: "customer", RightColumn: "c_id"},
				{LeftTable: "orders", LeftColumn: "o_partkey", RightTable: "part", RightColumn: "p_id"},
			},
			Payload: []query.ColumnRef{{Table: "orders", Column: "o_total"}},
		},
		{
			// From orders, both joins estimate 320 output rows: 8000 orders
			// × 20 of 500 customers (a 25-way c_nation equality, keys with
			// 500 distinct values) or × 16 of 400 parts (a 25-way p_brand
			// equality, keys with 400 distinct values). Cost breaks the
			// tie, so that driver's join order depends on the
			// configuration.
			TemplateID: 6,
			Tables:     []string{"orders", "customer", "part"},
			Filters: []query.Predicate{
				{Table: "customer", Column: "c_nation", Op: query.OpEq, Lo: 4, Hi: 4},
				{Table: "part", Column: "p_brand", Op: query.OpEq, Lo: 9, Hi: 9},
			},
			Joins: []query.Join{
				{LeftTable: "orders", LeftColumn: "o_custkey", RightTable: "customer", RightColumn: "c_id"},
				{LeftTable: "orders", LeftColumn: "o_partkey", RightTable: "part", RightColumn: "p_id"},
			},
			Payload: []query.ColumnRef{{Table: "orders", Column: "o_total"}},
		},
	}
}

// cacheTestPool is the candidate index pool the mutation property test
// draws from: seekable, covering, composite, NL-enabling, and
// deliberately irrelevant indexes on every table.
func cacheTestPool() []*index.Index {
	return []*index.Index{
		index.New("orders", []string{"o_date"}, nil),
		index.New("orders", []string{"o_custkey"}, []string{"o_total"}),
		index.New("orders", []string{"o_custkey", "o_date"}, []string{"o_total"}),
		index.New("orders", []string{"o_partkey"}, nil),
		index.New("orders", []string{"o_status"}, []string{"o_comment"}),
		index.New("orders", []string{"o_priority"}, nil),
		index.New("customer", []string{"c_nation"}, nil),
		index.New("customer", []string{"c_nation", "c_segment"}, []string{"c_name"}),
		index.New("customer", []string{"c_segment"}, []string{"c_name"}),
		index.New("customer", []string{"c_name"}, nil),
		index.New("part", []string{"p_size"}, nil),
		index.New("part", []string{"p_brand", "p_size"}, nil),
	}
}

// TestPlanCacheConsistencyRandomMutations is the cache-consistency
// property test: a randomized add/drop/no-op mutation walk over a shared
// Config, pinning the cached optimiser byte-identical to the uncached
// reference on every query after every step — including repeat calls
// (hit path) and nil-config calls. Each (query, config) is priced by
// WhatIfCost first, so ChoosePlan builds the plan of a slot that holds
// only a cost; the walk re-prices every instance often enough that its
// recorded join orders are replayed, and the tied query's tied driver
// is searched afresh.
func TestPlanCacheConsistencyRandomMutations(t *testing.T) {
	schema, _ := testdb.Build(1)
	cm := engine.DefaultCostModel()
	cached := New(schema, cm)
	ref := NewUncached(schema, cm)
	queries := cacheTestQueries()
	pool := cacheTestPool()

	check := func(step int, cfg *index.Config) {
		t.Helper()
		for _, q := range queries {
			want, werr := ref.ChoosePlan(q, cfg)
			cost, cerr := cached.WhatIfCost(q, cfg)
			if (werr == nil) != (cerr == nil) {
				t.Fatalf("step %d q%d: what-if err mismatch: cached %v, uncached %v",
					step, q.TemplateID, cerr, werr)
			}
			if werr == nil && math.Float64bits(cost) != math.Float64bits(want.EstCost) {
				t.Fatalf("step %d q%d: what-if cost bits differ: %v vs %v",
					step, q.TemplateID, cost, want.EstCost)
			}
			for pass := 0; pass < 2; pass++ { // second pass must hit
				got, gerr := cached.ChoosePlan(q, cfg)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("step %d q%d pass %d: err mismatch: cached %v, uncached %v",
						step, q.TemplateID, pass, gerr, werr)
				}
				if werr != nil {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d q%d pass %d: plan mismatch:\ncached:   %+v\nuncached: %+v",
						step, q.TemplateID, pass, got, want)
				}
				if math.Float64bits(got.EstCost) != math.Float64bits(want.EstCost) {
					t.Fatalf("step %d q%d: cost bits differ: %v vs %v",
						step, q.TemplateID, got.EstCost, want.EstCost)
				}
			}
		}
	}

	check(-1, nil)
	cfg := index.NewConfig()
	rng := rand.New(rand.NewSource(42))
	for step := 0; step < 300; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // add (no-op when already present)
			cfg.Add(pool[rng.Intn(len(pool))])
		case op < 8: // drop (no-op when absent)
			cfg.Drop(pool[rng.Intn(len(pool))].ID())
		default: // pure no-op step: re-check under unchanged content
		}
		check(step, cfg)
	}

	st := cached.CacheStats()
	if st.Hits == 0 || st.Misses == 0 || st.Invalidations == 0 {
		t.Fatalf("mutation walk did not exercise all cache paths: %+v", st)
	}
	replayed := 0
	for _, q := range queries {
		e := cached.cache.cur[q]
		if e == nil || e.orders == nil {
			t.Fatalf("q%d: no join orders recorded", q.TemplateID)
		}
		tied := false
		for _, d := range e.orders {
			tied = tied || d.tied
			for _, s := range d.steps {
				if !d.tied && s.ver != 0 {
					replayed++
				}
			}
		}
		if q.TemplateID == 6 && !tied {
			t.Fatal("q6: no driver marked tied, though its two joins tie on rows")
		}
	}
	if replayed == 0 {
		t.Fatal("walk replayed no recorded step")
	}
	if ref.CacheStats() != (PlanCacheStats{}) {
		t.Fatalf("uncached optimiser reports stats: %+v", ref.CacheStats())
	}
}

// TestPlanCacheTiedDriverSearchedAfresh pins the fallback for a driver
// whose recorded join order had a rows tie. From orders, q6's two joins
// tie on output rows and cost breaks the tie: at scale factor 100, part
// first under no index or orders(o_custkey), customer first once a
// covering customer(c_nation) index makes that join the cheaper one.
// The second search, under orders(o_custkey), records part first; a
// replay of it under the covering index would add the step prices in
// the other order, so only a fresh search of the tied driver matches
// the uncached reference bit for bit.
func TestPlanCacheTiedDriverSearchedAfresh(t *testing.T) {
	schema, _ := testdb.BuildScaled(1, 100, 2000)
	cm := engine.DefaultCostModel()
	cached, ref := New(schema, cm), NewUncached(schema, cm)
	var q *query.Query
	for _, cq := range cacheTestQueries() {
		if cq.TemplateID == 6 {
			q = cq
		}
	}
	custkey, covering := index.NewConfig(), index.NewConfig()
	custkey.Add(index.New("orders", []string{"o_custkey"}, nil))
	covering.Add(index.New("customer", []string{"c_nation"}, []string{"c_id"}))
	for _, c := range []struct {
		name  string
		cfg   *index.Config
		first string // the reference plan's first joined table
	}{
		{"empty", nil, "part"},
		{"orders(o_custkey)", custkey, "part"},
		{"covering customer(c_nation)", covering, "customer"},
	} {
		want, err := ref.ChoosePlan(q, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want.Driver.Table != "orders" || want.Steps[0].InnerTable != c.first {
			t.Fatalf("%s: reference plan drives from %s and joins %s first, want orders and %s",
				c.name, want.Driver.Table, want.Steps[0].InnerTable, c.first)
		}
		got, err := cached.WhatIfCost(q, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want.EstCost) {
			t.Fatalf("%s: cached cost %v, uncached %v", c.name, got, want.EstCost)
		}
	}
	e := cached.cache.cur[q]
	if e.orders == nil || !e.orders[0].tied {
		t.Fatal("the orders driver's recorded order is not marked tied")
	}
}

// TestPlanCacheHitMissAccounting pins the counter semantics: miss on
// first sight, fingerprint hit on unchanged config, fingerprint hit (and
// no invalidation) after irrelevant-index churn, miss plus one
// relevant-set change after a relevant add, one more relevant-set change
// plus a fingerprint hit on dropping back, and a hit for a ChoosePlan
// that builds the plan of a slot WhatIfCost priced.
func TestPlanCacheHitMissAccounting(t *testing.T) {
	schema, _ := testdb.Build(1)
	o := New(schema, engine.DefaultCostModel())
	q := cacheTestQueries()[1] // orders: o_custkey eq + o_date range
	cfg := index.NewConfig()

	assertStats := func(label string, hits, misses, invals uint64) {
		t.Helper()
		if st := o.CacheStats(); st.Hits != hits || st.Misses != misses || st.Invalidations != invals {
			t.Fatalf("%s: stats = %+v, want {%d %d %d}", label, st, hits, misses, invals)
		}
	}

	if _, err := o.ChoosePlan(q, cfg); err != nil {
		t.Fatal(err)
	}
	assertStats("cold", 0, 1, 0)
	if _, err := o.ChoosePlan(q, cfg); err != nil {
		t.Fatal(err)
	}
	assertStats("unchanged config", 1, 1, 0)

	// An index that fails every relevance screen for q (no seek prefix on
	// q's predicates, not covering, leading key not a join column): the
	// screen yields the same ids, so the relevant set stays, the
	// fingerprint is unchanged and the plan is re-served from cache.
	cfg.Add(index.New("orders", []string{"o_priority"}, nil))
	if _, err := o.ChoosePlan(q, cfg); err != nil {
		t.Fatal(err)
	}
	assertStats("irrelevant churn", 2, 1, 0)

	// A relevant index changes the relevant set (one invalidation) and
	// the fingerprint: miss, fresh search.
	cfg.Add(index.New("orders", []string{"o_custkey", "o_date"}, nil))
	if _, err := o.ChoosePlan(q, cfg); err != nil {
		t.Fatal(err)
	}
	assertStats("relevant add", 2, 2, 1)

	// Dropping back restores a previously held relevant set: it counts
	// as a change (one invalidation) and the restored fingerprint hits
	// the plan cache.
	cfg.Drop(index.New("orders", []string{"o_custkey", "o_date"}, nil).ID())
	if _, err := o.ChoosePlan(q, cfg); err != nil {
		t.Fatal(err)
	}
	assertStats("relevant drop back", 3, 2, 2)

	// WhatIfCost under a new fingerprint is a miss that prices a cost
	// only. The first ChoosePlan on that slot builds the plan and counts
	// as a hit, as it would had ChoosePlan priced the fingerprint first;
	// the next one returns the same plan.
	cfg.Add(index.New("orders", []string{"o_date"}, nil))
	cost, err := o.WhatIfCost(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertStats("what-if miss", 3, 3, 3)
	plan, err := o.ChoosePlan(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(plan.EstCost) != math.Float64bits(cost) {
		t.Fatalf("plan cost %v differs from what-if cost %v", plan.EstCost, cost)
	}
	assertStats("plan on a cost-only slot", 4, 3, 3)
	if again, _ := o.ChoosePlan(q, cfg); again != plan {
		t.Fatal("second ChoosePlan on the slot re-built its plan")
	}
	assertStats("plan hit", 5, 3, 3)
}

// TestPlanCacheErrorsNotCached pins that error results are re-derived
// with identical text on every call and never enter the cache.
func TestPlanCacheErrorsNotCached(t *testing.T) {
	schema, _ := testdb.Build(1)
	o := New(schema, engine.DefaultCostModel())
	bad := []*query.Query{
		{},
		{Tables: []string{"ghost"}},
		{TemplateID: 9, Tables: []string{"orders", "customer"}}, // disconnected
	}
	for _, q := range bad {
		_, err1 := o.ChoosePlan(q, nil)
		_, err2 := o.ChoosePlan(q, nil)
		if err1 == nil || err2 == nil {
			t.Fatalf("bad query %+v accepted", q)
		}
		if err1.Error() != err2.Error() {
			t.Fatalf("error text drifted between calls: %q vs %q", err1, err2)
		}
	}
	if st := o.CacheStats(); st.Hits != 0 {
		t.Fatalf("error paths produced cache hits: %+v", st)
	}
}

// TestPlanCacheSharedAcrossConfigsByFingerprint pins the headline
// economy: two different Config objects with the same relevant indexes
// for a query share one cached plan.
func TestPlanCacheSharedAcrossConfigsByFingerprint(t *testing.T) {
	schema, _ := testdb.Build(1)
	o := New(schema, engine.DefaultCostModel())
	q := cacheTestQueries()[0] // orders o_date range

	a := index.NewConfig()
	a.Add(index.New("orders", []string{"o_date"}, nil))
	b := a.Clone()
	b.Add(index.New("customer", []string{"c_nation"}, nil)) // other table only

	p1, err := o.ChoosePlan(q, a)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := o.ChoosePlan(q, b)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("equal fingerprints did not share one cached plan")
	}
	if st := o.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

// TestPlanCacheGenerations pins the entry map's two-generation bound:
// fresh instances never hold more than two generations of entries, an
// instance re-priced once per generation keeps hitting, an evicted
// instance re-plans to the uncached plan, and every generation flip
// counts as exactly one invalidation.
func TestPlanCacheGenerations(t *testing.T) {
	schema, _ := testdb.Build(1)
	cm := engine.DefaultCostModel()
	o := New(schema, cm)
	ref := NewUncached(schema, cm)
	templates := cacheTestQueries()
	cfg := index.NewConfig()
	cfg.Add(index.New("orders", []string{"o_custkey"}, []string{"o_total"}))
	fresh := func(i int) *query.Query {
		q := *templates[i%len(templates)]
		return &q
	}
	flips := uint64(0)
	price := func(q *query.Query) *engine.Plan {
		t.Helper()
		before := len(o.cache.cur)
		plan, err := o.ChoosePlan(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(o.cache.cur) < before {
			flips++
		}
		if held := len(o.cache.cur) + len(o.cache.old); held > 2*maxCachedQueries {
			t.Fatalf("cache holds %d entries, want at most %d", held, 2*maxCachedQueries)
		}
		return plan
	}

	// Three generations of fresh instances: two flips, and the first
	// generation is gone.
	first := fresh(4)
	price(first)
	for i := 1; i < 3*maxCachedQueries; i++ {
		price(fresh(i))
	}
	if st := o.CacheStats(); st != (PlanCacheStats{Misses: 3 * maxCachedQueries, Invalidations: 2}) || flips != 2 {
		t.Fatalf("after 3×%d fresh instances: stats %+v, %d flips; want %d misses, 2 invalidations, 2 flips",
			maxCachedQueries, st, flips, 3*maxCachedQueries)
	}
	got := price(first)
	want, err := ref.ChoosePlan(first, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("evicted instance re-planned to\n%+v\nwant uncached\n%+v", got, want)
	}
	if st := o.CacheStats(); st.Misses != 3*maxCachedQueries+1 {
		t.Fatalf("evicted instance did not re-plan: %+v", st)
	}

	// A hot instance re-priced once per generation is promoted before
	// its generation is dropped, so only the fresh instances miss.
	hot := fresh(4)
	price(hot)
	before := o.CacheStats()
	for i := 0; i < 3*maxCachedQueries; i++ {
		price(fresh(i))
		if (i+1)%maxCachedQueries == 0 {
			if plan := price(hot); !reflect.DeepEqual(plan, want) {
				t.Fatalf("hot instance re-priced to %+v, want %+v", plan, want)
			}
		}
	}
	st := o.CacheStats()
	if st.Misses-before.Misses != 3*maxCachedQueries || st.Hits-before.Hits != 3 {
		t.Fatalf("hot instance missed: %d misses, %d hits since priming; want %d and 3",
			st.Misses-before.Misses, st.Hits-before.Hits, 3*maxCachedQueries)
	}
	if st.Invalidations != flips {
		t.Fatalf("%d invalidations for %d generation flips", st.Invalidations, flips)
	}
}

// TestPlanCacheConcurrentCallers keeps the one-mutex contract honest
// under -race: two goroutines price overlapping queries through one
// cached Optimizer, each walking its own configuration, and every plan
// matches the uncached reference.
func TestPlanCacheConcurrentCallers(t *testing.T) {
	schema, _ := testdb.Build(1)
	cm := engine.DefaultCostModel()
	cached := New(schema, cm)
	ref := NewUncached(schema, cm)
	queries := cacheTestQueries()
	pool := cacheTestPool()
	for _, ix := range pool {
		ix.ID() // Index memoises its id on first use; settle it before sharing
	}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			cfg := index.NewConfig()
			for step := 0; step < 200; step++ {
				if rng.Intn(2) == 0 {
					cfg.Add(pool[rng.Intn(len(pool))])
				} else {
					cfg.Drop(pool[rng.Intn(len(pool))].ID())
				}
				for _, q := range queries {
					got, gerr := cached.ChoosePlan(q, cfg)
					want, werr := ref.ChoosePlan(q, cfg)
					if gerr != nil || werr != nil {
						t.Errorf("seed %d step %d q%d: errors %v / %v", seed, step, q.TemplateID, gerr, werr)
						return
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("seed %d step %d q%d: cached plan differs from uncached", seed, step, q.TemplateID)
						return
					}
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
}
