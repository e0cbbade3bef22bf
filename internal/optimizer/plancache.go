package optimizer

import (
	"bytes"
	"fmt"
	"slices"
	"sync"

	"dbabandits/internal/catalog"
	"dbabandits/internal/engine"
	"dbabandits/internal/index"
	"dbabandits/internal/query"
)

// This file is the optimiser's config-fingerprinted caching layer. The
// observation it exploits: ChoosePlan's output depends on the
// configuration only through the per-table subsets of indexes that pass
// the relevance screen — an index with no usable seek prefix, no
// covering property, and a leading key column that is not one of the
// query's join columns on its table can never enter bestAccess or
// nlInnerAccess, so adding or dropping it cannot change the plan. Four
// memo levels fall out of that:
//
//  1. a slot per (query instance, relevant-index fingerprint), the
//     fingerprint being the ids of the indexes that pass the screen, per
//     table, so the advisor and HTAP paths that re-price the same
//     instances against many candidate configurations price each
//     distinct relevant combination once. WhatIfCost fills only the
//     slot's cost and builds no plan; ChoosePlan adds the plan, building
//     the winning driver's steps once per slot;
//  2. a join order per (query instance, driver). Each greedy step takes
//     the candidate join with the fewest estimated output rows, and those
//     estimates come from filtered rows and column statistics alone, so a
//     driver's order does not depend on the configuration unless two
//     candidates tie on rows and cost breaks the tie. An instance's
//     second search records every driver's order; later searches re-price
//     an untied order step by step (the inner table's best access under a
//     hash join against its index-NL choice), keeping each step's price
//     until its inner table's relevant set changes, and search a tied
//     driver in full. A first search records nothing, so a batch round's
//     fresh instances, each planned once, pay nothing for it;
//  3. a bestAccess memo per (query instance, table) for the relevant set
//     currently loaded, shared across the per-driver loop inside one
//     search (the greedy search calls bestAccess O(tables²) times) and
//     kept until a screen of the table yields different ids;
//  4. per-instance planning state (metas, filtered-row estimates,
//     FiltersOn results, referenced columns, the screened relevant set)
//     computed once per query instance, plus cache-wide scratch (the
//     screen, fingerprint, joined-set and step buffers) reused by every
//     call, so a ChoosePlan miss on a known instance allocates only the
//     plan, its Steps and the fingerprint key, and a WhatIfCost miss on a
//     recorded instance only the key.
//
// Every call screens cfg.OnTable for each of the query's tables, so the
// configuration holds no memo. No further level is kept, because the
// traffic barely repeats it: over one seed-1 episode per repository
// benchmark workload, no instance was priced twice in a row under one
// unchanged Config object, and a table returned to an index set it had
// seen before on about 3% of rescans (advisor only).
//
// Everything is byte-identical to the uncached search: the screen
// filters cfg.OnTable's deterministic order without reordering, costs
// are computed by the same expressions in the same order (a replayed
// order adds the same step prices the recording search added), and
// errors are never cached. Accounting is preserved — WhatIfCalls counts
// logical optimiser invocations whether or not they hit the cache.

const (
	// maxCachedQueries bounds each of the entry map's two generations.
	// Batch sequencers instantiate fresh query objects every round, so
	// entries for dead instances stop being looked up; they age out with
	// their generation instead of leaking for the length of a serving
	// run. One generation holds the largest cyclic working set any
	// caller re-prices — PDTool's random-regime training window, 4
	// rounds × 99 TPC-DS instances = 396 — so such an instance is always
	// promoted before its generation is dropped.
	maxCachedQueries = 512
	// maxPlansPerQuery bounds one query's fingerprint→slot map.
	maxPlansPerQuery = 1024
)

// PlanCacheStats are the cache's cumulative counters. Hits and Misses
// count ChoosePlan and WhatIfCost calls by fingerprint: a miss is the
// first call priced under an instance's fingerprint, a hit any later
// one. A ChoosePlan on a slot that WhatIfCost priced counts as a hit
// although it builds the plan, so the counts do not depend on which of
// the two priced a fingerprint first. Invalidations counts relevant-set
// changes (a table whose screen yields ids other than the ones it last
// held, whether or not it has held them before) plus capacity
// evictions, where each generation flip of the entry map and each reset
// of a full plan map counts as one.
// They feed benchmarks and logs only — no golden-pinned output includes
// them.
type PlanCacheStats struct {
	Hits, Misses, Invalidations uint64
}

// planCache is the optimiser-level cache state. One mutex guards it all
// and is held for a whole ChoosePlan, so concurrent callers sharing an
// Optimizer serialise; no caller prices in parallel.
//
// Entries live in two generations: a lookup is served from cur, or
// promoted into cur from old; when cur fills it becomes old and the
// previous old generation is dropped.
type planCache struct {
	mu       sync.Mutex
	cur, old map[*query.Query]*queryEntry

	hits, misses, invalidations uint64

	// Screen scratch, swapped with a table's buffers when its relevant
	// set changes.
	rel []relIndex
	ids []byte

	// Cold-path scratch, reused across the misses of every entry.
	fpBuf  []byte
	joined []bool
	steps  []engine.JoinStep
}

func newPlanCache() *planCache {
	return &planCache{
		cur: make(map[*query.Query]*queryEntry, maxCachedQueries),
		old: make(map[*query.Query]*queryEntry, maxCachedQueries),
	}
}

// CacheStats returns a snapshot of the plan-cache counters; zero-valued
// for an uncached optimiser.
func (o *Optimizer) CacheStats() PlanCacheStats {
	if o.cache == nil {
		return PlanCacheStats{}
	}
	c := o.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{Hits: c.hits, Misses: c.misses, Invalidations: c.invalidations}
}

// relIndex is one index that passed the relevance screen, with the
// screen's per-index facts kept for the access-path pricing.
type relIndex struct {
	ix       *index.Index
	eqLen    int
	hasRange bool
	covering bool
}

// nlChoice is nlInnerAccess's result with the entry width its cost needs.
type nlChoice struct {
	acc        engine.Access
	ok         bool
	entryWidth float64 // leaf entry width (row width for clustered PK)
}

// qtable is the per-(query, table) planning state: everything ChoosePlan
// previously recomputed per call that does not depend on the
// configuration, plus the relevant set last screened.
type qtable struct {
	name         string
	meta         *catalog.Table
	preds        []query.Predicate // q.FiltersOn(name), computed once
	joinCols     []string          // distinct columns of name in q.Joins
	refCols      []string          // distinct pred ∪ join ∪ payload columns (covering test)
	filteredRows float64           // EstimateFilteredRows(meta, preds)
	tablePages   float64           // CM.PagesOf(meta.SizeBytes())
	rowWidth     float64           // float64(meta.RowWidthBytes())
	seqCost      float64           // CM.TableScanSec(meta, len(preds))

	// The relevant set last screened, kept with its access memo until a
	// screen yields different ids; plans keep no reference into it.
	loaded   bool       // false until the first refresh
	rel      []relIndex // screened indexes, in cfg.OnTable order
	ids      []byte     // canonical fingerprint component: screened index ids
	ver      uint64     // counts the relevant sets loaded
	access   accessChoice
	accessOK bool
}

// queryEntry is one query instance's cache entry.
type queryEntry struct {
	q      *query.Query
	tables []qtable // distinct tables, in first-appearance order
	order  []int    // q.Tables[i] → index into tables

	// The first fingerprint priced keeps its slot in the entry, and later
	// ones go to plans, so an instance priced once, as batch rounds price
	// theirs, makes no map.
	fp0   string
	slot0 planSlot
	plans map[string]planSlot

	orders []driverOrder // per driver position in order, from the second search on
}

// planSlot is one relevant-index fingerprint's priced result. WhatIfCost
// fills only cost; plan stays nil until a ChoosePlan needs it.
type planSlot struct {
	cost float64
	plan *engine.Plan
}

// driverOrder is the greedy join order from one driver. The step picked
// is the candidate with the fewest output rows, and those row estimates
// depend only on filtered rows and column statistics, not on the
// configuration; only a rows tie, which cost breaks, lets the order
// depend on it. So an untied order can be re-priced under any relevant
// set, and a search's error, which depends only on the order, repeats.
type driverOrder struct {
	steps []orderStep
	tied  bool  // some step had two candidates with the fewest rows
	err   error // the search's error, if it failed
}

// orderStep is one recorded step: the join taken, its direction, and its
// row estimates, with its price under the inner table's relevant set
// number ver.
type orderStep struct {
	join               query.Join
	swap               bool // the join's right side is the outer one
	inner              int  // the joined table's qtable index
	probeRows, outRows float64
	ver                uint64
	cost               float64
}

// sides returns the step's outer and inner table and column.
func (s *orderStep) sides() (outerT, outerC, innerT, innerC string) {
	j := s.join
	if s.swap {
		return j.RightTable, j.RightColumn, j.LeftTable, j.LeftColumn
	}
	return j.LeftTable, j.LeftColumn, j.RightTable, j.RightColumn
}

// joinStep is the plan step for s with the given inner access.
func (s *orderStep) joinStep(inner engine.Access, algo engine.JoinAlgo) engine.JoinStep {
	outerT, outerC, innerT, innerC := s.sides()
	return engine.JoinStep{
		Pred:       s.join,
		OuterTable: outerT, OuterColumn: outerC,
		InnerTable: innerT, InnerColumn: innerC,
		Inner: inner,
		Algo:  algo,
	}
}

// price is the cached ChoosePlan (withPlan) and WhatIfCost. A slot that
// holds only a cost answers WhatIfCost; ChoosePlan on it searches once
// more to build the plan and stores it in the slot.
func (c *planCache) price(o *Optimizer, q *query.Query, cfg *index.Config, withPlan bool) (planSlot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, err := c.entry(o, q)
	if err != nil {
		return planSlot{}, err
	}
	for i := range e.tables {
		c.refreshRelevant(&e.tables[i], cfg)
	}
	fp := c.fpBuf[:0]
	for i := range e.tables {
		fp = append(fp, e.tables[i].ids...)
		fp = append(fp, 0x1e)
	}
	c.fpBuf = fp
	slot, hit := e.slot(fp)
	if hit && (slot.plan != nil || !withPlan) {
		c.hits++
		return slot, nil
	}
	slot, err = c.planEntry(o, e, withPlan)
	if err != nil {
		// Errors are never cached: every call re-derives and returns the
		// identical message, exactly like the uncached path.
		return planSlot{}, err
	}
	if hit {
		c.hits++
	} else {
		c.misses++
		if len(e.plans) >= maxPlansPerQuery {
			e.plans = nil
			c.invalidations++
		}
	}
	e.store(fp, slot)
	return slot, nil
}

// slot returns the slot priced under fingerprint fp, if any.
func (e *queryEntry) slot(fp []byte) (planSlot, bool) {
	if e.fp0 == string(fp) {
		return e.slot0, true
	}
	s, ok := e.plans[string(fp)]
	return s, ok
}

// store sets fp's slot: the entry's own slot for the first fingerprint
// priced, a slot in the plan map for any other.
func (e *queryEntry) store(fp []byte, s planSlot) {
	switch {
	case e.fp0 == "":
		e.fp0, e.slot0 = string(fp), s
	case e.fp0 == string(fp):
		e.slot0 = s
	default:
		if e.plans == nil {
			e.plans = make(map[string]planSlot)
		}
		e.plans[string(fp)] = s
	}
}

// entry returns q's entry in the current generation, promoting it from
// the old one or building it on first sight. A full current generation
// flips first: it becomes old and the previous old generation is
// dropped, counted as one invalidation.
func (c *planCache) entry(o *Optimizer, q *query.Query) (*queryEntry, error) {
	if e := c.cur[q]; e != nil {
		return e, nil
	}
	e := c.old[q]
	if e != nil {
		delete(c.old, q)
	} else {
		var err error
		if e, err = newQueryEntry(o, q); err != nil {
			return nil, err
		}
	}
	if len(c.cur) >= maxCachedQueries {
		clear(c.old)
		c.cur, c.old = c.old, c.cur
		c.invalidations++
	}
	c.cur[q] = e
	return e, nil
}

// newQueryEntry precomputes the query's configuration-independent
// planning state. Error cases (no tables, unknown table) mirror the
// uncached preamble byte for byte and are surfaced uncached.
func newQueryEntry(o *Optimizer, q *query.Query) (*queryEntry, error) {
	if len(q.Tables) == 0 {
		return nil, fmt.Errorf("optimizer: query has no tables")
	}
	e := &queryEntry{
		q:      q,
		tables: make([]qtable, 0, len(q.Tables)),
		order:  make([]int, 0, len(q.Tables)),
	}
	for _, name := range q.Tables {
		if i := e.tableIndex(name); i >= 0 {
			e.order = append(e.order, i)
			continue
		}
		meta, ok := o.Schema.Table(name)
		if !ok {
			return nil, fmt.Errorf("optimizer: unknown table %q", name)
		}
		preds := q.FiltersOn(name)
		t := qtable{
			name:         name,
			meta:         meta,
			preds:        preds,
			filteredRows: EstimateFilteredRows(meta, preds),
			tablePages:   o.CM.PagesOf(meta.SizeBytes()),
			rowWidth:     float64(meta.RowWidthBytes()),
			seqCost:      o.CM.TableScanSec(meta, len(preds)),
		}
		// refCols leads with the join columns, which joinCols then
		// shares; covers needs the referenced columns as a set only, so
		// their order is free. n bounds the distinct count.
		n := len(preds)
		for _, j := range q.Joins {
			if j.LeftTable == name {
				n++
			}
			if j.RightTable == name {
				n++
			}
		}
		for _, c := range q.Payload {
			if c.Table == name {
				n++
			}
		}
		cols := make([]string, 0, n)
		for _, j := range q.Joins {
			if j.LeftTable == name {
				cols = appendDistinct(cols, j.LeftColumn)
			}
			if j.RightTable == name {
				cols = appendDistinct(cols, j.RightColumn)
			}
		}
		t.joinCols = cols[:len(cols):len(cols)]
		for _, p := range preds {
			cols = appendDistinct(cols, p.Column)
		}
		for _, c := range q.Payload {
			if c.Table == name {
				cols = appendDistinct(cols, c.Column)
			}
		}
		t.refCols = cols
		e.order = append(e.order, len(e.tables))
		e.tables = append(e.tables, t)
	}
	return e, nil
}

// appendDistinct appends s unless list already holds it.
func appendDistinct(list []string, s string) []string {
	if slices.Contains(list, s) {
		return list
	}
	return append(list, s)
}

// refreshRelevant screens cfg's indexes on the table into the cache's
// scratch. When the screened ids differ from the table's current ones,
// the buffers swap and the access memo resets; otherwise the relevant
// set and its access memo stay.
func (c *planCache) refreshRelevant(t *qtable, cfg *index.Config) {
	var list []*index.Index
	if cfg != nil {
		list = cfg.OnTable(t.name)
	}
	c.rel, c.ids = t.screen(list, c.rel[:0], c.ids[:0])
	if t.loaded && bytes.Equal(c.ids, t.ids) {
		return
	}
	if t.loaded {
		c.invalidations++
	}
	t.rel, c.rel = c.rel, t.rel
	t.ids, c.ids = c.ids, t.ids
	t.loaded, t.accessOK = true, false
	t.ver++
}

// screen filters the table's indexes down to the ones that can affect
// any access decision for this query: a usable seek prefix, a covering
// property, or a leading key column matching one of the query's join
// columns on the table (the index-nested-loop requirement). It appends
// the survivors to ixs and their canonical fingerprint component (ids
// joined by 0x1f) to ids. Order is preserved from cfg.OnTable, so
// downstream tie-breaking is identical to the uncached scans.
func (t *qtable) screen(list []*index.Index, ixs []relIndex, ids []byte) ([]relIndex, []byte) {
	for _, ix := range list {
		eqLen, hasRange := ix.SeekPrefix(t.preds)
		covering := t.covers(ix)
		if eqLen == 0 && !hasRange && !covering && !slices.Contains(t.joinCols, ix.Key[0]) {
			continue
		}
		if len(ixs) > 0 {
			ids = append(ids, 0x1f)
		}
		ixs = append(ixs, relIndex{ix: ix, eqLen: eqLen, hasRange: hasRange, covering: covering})
		ids = append(ids, ix.ID()...)
	}
	return ixs, ids
}

// covers is index.CoversQueryOn over the precomputed referenced-column
// union — same result, no per-call set allocations.
func (t *qtable) covers(ix *index.Index) bool {
	for _, col := range t.refCols {
		if !ix.HasColumn(col) {
			return false
		}
	}
	return true
}

// planEntry is choosePlanUncached over the entry's memoised state: same
// driver loop, same tie-breaking, same floats. Each driver is completed
// by priceDriver. With withPlan it also builds the winner's plan;
// without, it prices only and writes no steps.
func (c *planCache) planEntry(o *Optimizer, e *queryEntry, withPlan bool) (planSlot, error) {
	record := e.fp0 != "" && e.orders == nil
	if record {
		n := len(e.q.Tables) - 1
		steps := make([]orderStep, n*len(e.order))
		e.orders = make([]driverOrder, len(e.order))
		for k := range e.orders {
			e.orders[k].steps = steps[k*n : k*n : (k+1)*n]
		}
	}
	var (
		haveBest           bool
		bestCost, bestRows float64
		bestDrv            engine.Access
		bestStart, bestEnd int // the winner's steps in c.steps
		firstErr           error
	)
	c.steps = c.steps[:0]
	for k := range e.order {
		start := len(c.steps)
		cost, rows, drv, err := c.priceDriver(o, e, k, withPlan, record)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			c.steps = c.steps[:start]
			continue
		}
		if !haveBest || cost < bestCost {
			haveBest = true
			bestCost, bestRows, bestDrv = cost, rows, drv
			bestStart, bestEnd = start, len(c.steps)
		} else {
			c.steps = c.steps[:start]
		}
	}
	if !haveBest {
		return planSlot{}, firstErr
	}
	slot := planSlot{cost: bestCost}
	if withPlan {
		slot.plan = &engine.Plan{Query: e.q, Driver: bestDrv, EstRows: bestRows, EstCost: bestCost}
		if bestEnd > bestStart {
			slot.plan.Steps = append([]engine.JoinStep(nil), c.steps[bestStart:bestEnd]...)
		}
	}
	return slot, nil
}

// priceDriver completes the plan from the driver at position k of
// e.order. The first search runs the greedy completion; the second runs
// it again, recording the driver's order; later searches replay an
// untied recorded order, or return its recorded error, and search a
// tied driver afresh. With steps the completion's join steps are
// appended to c.steps.
func (c *planCache) priceDriver(o *Optimizer, e *queryEntry, k int, steps, record bool) (cost, rows float64, drv engine.Access, err error) {
	driver := e.order[k]
	if record {
		return c.searchDriver(o, e, driver, steps, &e.orders[k])
	}
	if e.orders == nil || e.orders[k].tied {
		return c.searchDriver(o, e, driver, steps, nil)
	}
	d := &e.orders[k]
	if d.err != nil {
		return 0, 0, engine.Access{}, d.err
	}
	drvChoice := o.entryBestAccess(&e.tables[driver])
	drv, cost, rows = drvChoice.acc, drvChoice.estCost, drvChoice.estRows
	for i := range d.steps {
		s := &d.steps[i]
		if ver := e.tables[s.inner].ver; steps || s.ver != ver {
			stepCost, acc, algo := o.priceStep(e, s)
			if steps {
				c.steps = append(c.steps, s.joinStep(acc, algo))
			}
			s.ver, s.cost = ver, stepCost
		}
		cost += s.cost
		rows = s.outRows
	}
	cost += o.CM.OutputSec(rows, e.q.AggWidth)
	return cost, rows, drv, nil
}

// tableIndex resolves a table name to its qtable position, -1 when the
// name is not in the FROM list.
func (e *queryEntry) tableIndex(name string) int {
	for i := range e.tables {
		if e.tables[i].name == name {
			return i
		}
	}
	return -1
}

// searchDriver is planFromDriver over the entry: at each step every
// candidate join is priced and the one with the fewest output rows wins,
// the cheaper on a rows tie. With steps the join steps are appended to
// c.steps. A non-nil rec receives the order taken, whether any step
// had a rows tie, and the search's error.
func (c *planCache) searchDriver(o *Optimizer, e *queryEntry, driver int, steps bool, rec *driverOrder) (cost, curRows float64, drv engine.Access, err error) {
	q := e.q
	drvChoice := o.entryBestAccess(&e.tables[driver])
	drv = drvChoice.acc
	cost = drvChoice.estCost
	curRows = drvChoice.estRows
	c.joined = append(c.joined[:0], make([]bool, len(e.tables))...)
	joined := c.joined
	joined[driver] = true
	fail := func(err error) (float64, float64, engine.Access, error) {
		if rec != nil {
			rec.err = err
		}
		return 0, 0, engine.Access{}, err
	}

	for remaining := len(q.Tables) - 1; remaining > 0; remaining-- {
		type cand struct {
			s       orderStep
			acc     engine.Access
			algo    engine.JoinAlgo
			estCost float64
		}
		var best cand
		haveBest, tied := false, false
		for _, j := range q.Joins {
			li, ri := e.tableIndex(j.LeftTable), e.tableIndex(j.RightTable)
			ljoined := li >= 0 && joined[li]
			rjoined := ri >= 0 && joined[ri]
			var cnd cand
			var outer int
			switch {
			case ljoined && !rjoined:
				outer, cnd.s = li, orderStep{join: j, inner: ri}
			case rjoined && !ljoined:
				outer, cnd.s = ri, orderStep{join: j, swap: true, inner: li}
			default:
				continue
			}
			_, outerC, innerName, innerC := cnd.s.sides()
			if cnd.s.inner < 0 {
				return fail(fmt.Errorf("optimizer: join references table %q not in FROM list", innerName))
			}
			inner := &e.tables[cnd.s.inner]
			cnd.s.probeRows = curRows
			cnd.s.outRows = JoinCardinality(curRows, e.tables[outer].meta, outerC, inner.filteredRows, inner.meta, innerC)
			cnd.estCost, cnd.acc, cnd.algo = o.priceStep(e, &cnd.s)

			switch {
			case !haveBest || cnd.s.outRows < best.s.outRows:
				best, haveBest, tied = cnd, true, false
			case cnd.s.outRows == best.s.outRows:
				tied = true
				if cnd.estCost < best.estCost {
					best = cnd
				}
			}
		}
		if !haveBest {
			return fail(fmt.Errorf("optimizer: query %d join graph is disconnected", q.TemplateID))
		}
		if rec != nil {
			rec.tied = rec.tied || tied
			rec.steps = append(rec.steps, best.s)
		}
		if steps {
			c.steps = append(c.steps, best.s.joinStep(best.acc, best.algo))
		}
		cost += best.estCost
		curRows = best.s.outRows
		joined[best.s.inner] = true
	}

	cost += o.CM.OutputSec(curRows, q.AggWidth)
	return cost, curRows, drv, nil
}

// priceStep prices one join step: a hash join over the inner table's
// best access, or the index-NL join when that is strictly cheaper.
func (o *Optimizer) priceStep(e *queryEntry, s *orderStep) (float64, engine.Access, engine.JoinAlgo) {
	inner := &e.tables[s.inner]
	innerChoice := o.entryBestAccess(inner)
	hashCost := innerChoice.estCost + o.CM.HashJoinSec(innerChoice.estRows, s.probeRows)
	_, _, _, innerC := s.sides()
	if nl := o.entryNLAccess(inner, innerC); nl.ok {
		if nlCost := o.entryEstimateNLJoin(inner, nl, s.probeRows, s.outRows); nlCost < hashCost {
			return nlCost, nl.acc, engine.JoinIndexNL
		}
	}
	return hashCost, innerChoice.acc, engine.JoinHash
}

// entryBestAccess is bestAccess over the relevant set, memoised until
// the next rescreen.
func (o *Optimizer) entryBestAccess(t *qtable) accessChoice {
	if t.accessOK {
		return t.access
	}
	best := accessChoice{
		acc:     engine.Access{Table: t.name, Kind: engine.AccessSeqScan},
		estCost: t.seqCost,
		estRows: t.filteredRows,
	}
	for _, ri := range t.rel {
		if ri.eqLen == 0 && !ri.hasRange && !ri.covering {
			continue // relevant only as an NL inner
		}
		entryWidth := float64(ri.ix.EntryWidthBytes(t.meta))
		var cost float64
		kind := engine.AccessIndexSeek
		if ri.covering {
			kind = engine.AccessIndexOnly
		}
		if ri.eqLen == 0 && !ri.hasRange {
			cost = o.CM.IndexScanSec(float64(t.meta.RowCount), entryWidth, len(t.preds))
		} else {
			seekSel := o.seekSelectivity(t.meta, ri.ix, t.preds, ri.eqLen, ri.hasRange)
			matchEst := seekSel * float64(t.meta.RowCount)
			fetch := matchEst
			if ri.covering {
				fetch = 0
			}
			cost = o.CM.IndexSeekSec(matchEst, fetch, entryWidth, t.tablePages)
			if resid := len(t.preds) - ri.eqLen; resid > 0 {
				cost += matchEst * float64(resid) * o.CM.CPUPredSec
			}
		}
		if cost < best.estCost {
			best = accessChoice{
				acc: engine.Access{
					Table: t.name, Kind: kind, Index: ri.ix,
					EqLen: ri.eqLen, HasRange: ri.hasRange, Covering: ri.covering,
				},
				estCost: cost,
				estRows: t.filteredRows,
			}
		}
	}
	t.access = best
	t.accessOK = true
	return best
}

// entryNLAccess is nlInnerAccess over the relevant set. The screen keeps
// every index whose leading key column is a join column of the table, so
// scanning t.rel visits exactly the candidates the uncached scan would,
// in the same order.
func (o *Optimizer) entryNLAccess(t *qtable, innerCol string) nlChoice {
	if len(t.meta.PK) > 0 && t.meta.PK[0] == innerCol {
		// The clustered primary key wins regardless of the relevant set.
		return nlChoice{
			acc:        engine.Access{Table: t.name, Kind: engine.AccessClusteredSeek},
			ok:         true,
			entryWidth: t.rowWidth,
		}
	}
	var best *index.Index
	bestCovering := false
	for _, ri := range t.rel {
		if len(ri.ix.Key) == 0 || ri.ix.Key[0] != innerCol {
			continue
		}
		switch {
		case best == nil,
			ri.covering && !bestCovering,
			ri.covering == bestCovering && ri.ix.EntryWidthBytes(t.meta) < best.EntryWidthBytes(t.meta):
			best = ri.ix
			bestCovering = ri.covering
		}
	}
	if best == nil {
		return nlChoice{}
	}
	return nlChoice{
		acc: engine.Access{
			Table: t.name, Kind: engine.AccessIndexSeek, Index: best,
			EqLen: 1, Covering: bestCovering,
		},
		ok:         true,
		entryWidth: float64(best.EntryWidthBytes(t.meta)),
	}
}

// entryEstimateNLJoin is estimateNLJoin over an entryNLAccess choice.
func (o *Optimizer) entryEstimateNLJoin(t *qtable, nc nlChoice, probeRows, outRows float64) float64 {
	fetch := 0.0
	if nc.acc.Kind != engine.AccessClusteredSeek && nc.acc.Index != nil && !nc.acc.Covering {
		fetch = outRows
	}
	cost := o.CM.NLJoinSec(probeRows, outRows, fetch, nc.entryWidth, t.tablePages)
	if n := len(t.preds); n > 0 {
		cost += outRows * float64(n) * o.CM.CPUPredSec
	}
	return cost
}
