package optimizer

import (
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
// nlInnerAccess, so adding or dropping it cannot change the plan. Three
// memo levels fall out of that:
//
//  1. a plan cache per query instance, keyed by the concatenated
//     relevant-index fingerprint (index.Config.TableSig per table,
//     screened per query), so the advisor and HTAP paths that re-price
//     the same instances against many candidate configurations plan
//     each distinct relevant combination once;
//  2. a bestAccess memo per (query instance, table) for the relevant set
//     currently loaded, shared across the per-driver loop inside one
//     ChoosePlan (the greedy search calls bestAccess O(tables²) times)
//     and kept until the table's signature changes;
//  3. per-instance planning state (metas, filtered-row estimates,
//     FiltersOn results, referenced columns, the screened relevant set)
//     computed once per query instance, plus cache-wide scratch (the
//     fingerprint and joined-set buffers, step buffers) reused by every
//     miss, so a re-plan of a known instance allocates only the plan,
//     its Steps and the plan's fingerprint key.
//
// Nothing else is memoised, because the traffic barely repeats it. Over
// one seed-1 episode per repository benchmark workload, no instance was
// priced twice in a row under one unchanged Config object, a table
// returned to a signature it had seen before on about 3% of rescans
// (advisor only), and the index-NL inner choice, a scan of the table's
// few relevant indexes, repeated on under a quarter of its calls.
//
// Everything is byte-identical to the uncached search: the screen
// filters cfg.OnTable's deterministic order without reordering, costs
// are computed by the same expressions in the same order, and errors
// are never cached. Accounting is preserved — WhatIfCalls counts
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
	// maxPlansPerQuery bounds one query's fingerprint→plan map.
	maxPlansPerQuery = 1024
)

// PlanCacheStats are the cache's cumulative counters. Hits and Misses
// count ChoosePlan calls answered from / added to the plan cache;
// Invalidations counts relevant-set rescans (a table priced under a
// signature other than the one it last saw, whether or not it has seen
// that signature before) plus capacity evictions, where each generation
// flip of the entry map and each reset of a full plan map counts as one.
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

	// Cold-path scratch, reused across the misses of every entry.
	fpBuf     []byte
	joined    []bool
	curSteps  []engine.JoinStep
	bestSteps []engine.JoinStep
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
// configuration, plus the relevant set of the signature last priced.
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

	// The relevant set, rescreened into the same buffers whenever the
	// table's signature changes; plans keep no reference into them.
	loaded   bool       // false until the first refresh
	sig      string     // TableSig the relevant set was screened under
	rel      []relIndex // screened indexes, in cfg.OnTable order
	ids      []byte     // canonical fingerprint component: screened index ids
	access   accessChoice
	accessOK bool
}

// queryEntry is one query instance's cache entry.
type queryEntry struct {
	q      *query.Query
	tables []qtable // distinct tables, in first-appearance order
	order  []int    // q.Tables[i] → index into tables
	plans  map[string]*engine.Plan
}

// choosePlan is the cached ChoosePlan.
func (c *planCache) choosePlan(o *Optimizer, q *query.Query, cfg *index.Config) (*engine.Plan, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, err := c.entry(o, q)
	if err != nil {
		return nil, err
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
	if plan, ok := e.plans[string(fp)]; ok {
		c.hits++
		return plan, nil
	}
	plan, err := c.planEntry(o, e)
	if err != nil {
		// Errors are never cached: every call re-derives and returns the
		// identical message, exactly like the uncached path.
		return nil, err
	}
	c.misses++
	if len(e.plans) >= maxPlansPerQuery {
		e.plans = make(map[string]*engine.Plan, maxPlansPerQuery)
		c.invalidations++
	}
	e.plans[string(fp)] = plan
	return plan, nil
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
		plans:  make(map[string]*engine.Plan),
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

// refreshRelevant rescreens the table's indexes when cfg's signature for
// it differs from the one the relevant set was screened under.
func (c *planCache) refreshRelevant(t *qtable, cfg *index.Config) {
	sig := cfg.TableSig(t.name)
	if t.loaded && sig == t.sig {
		return
	}
	if t.loaded {
		c.invalidations++
	}
	var list []*index.Index
	if cfg != nil {
		list = cfg.OnTable(t.name)
	}
	t.rel, t.ids = t.screen(list, t.rel[:0], t.ids[:0])
	t.loaded, t.sig, t.accessOK = true, sig, false
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
// driver loop, same greedy completion, same tie-breaking, same floats.
func (c *planCache) planEntry(o *Optimizer, e *queryEntry) (*engine.Plan, error) {
	var (
		haveBest           bool
		bestCost, bestRows float64
		bestDrv            engine.Access
		firstErr           error
	)
	c.bestSteps = c.bestSteps[:0]
	for _, ti := range e.order {
		cost, rows, drv, err := c.planFromDriverEntry(o, e, ti)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if !haveBest || cost < bestCost {
			haveBest = true
			bestCost, bestRows, bestDrv = cost, rows, drv
			c.bestSteps, c.curSteps = c.curSteps, c.bestSteps
		}
	}
	if !haveBest {
		return nil, firstErr
	}
	plan := &engine.Plan{Query: e.q, Driver: bestDrv, EstRows: bestRows, EstCost: bestCost}
	if len(c.bestSteps) > 0 {
		plan.Steps = append([]engine.JoinStep(nil), c.bestSteps...)
	}
	return plan, nil
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

// planFromDriverEntry is planFromDriver writing its join steps into
// c.curSteps; the caller owns materialising the winner.
func (c *planCache) planFromDriverEntry(o *Optimizer, e *queryEntry, driver int) (cost, curRows float64, drv engine.Access, err error) {
	q := e.q
	drvChoice := o.entryBestAccess(&e.tables[driver])
	drv = drvChoice.acc
	cost = drvChoice.estCost
	curRows = drvChoice.estRows
	c.joined = append(c.joined[:0], make([]bool, len(e.tables))...)
	joined := c.joined
	joined[driver] = true
	c.curSteps = c.curSteps[:0]

	remaining := len(q.Tables) - 1
	for remaining > 0 {
		type cand struct {
			step    engine.JoinStep
			estCost float64
			outRows float64
		}
		var best cand
		haveBest := false
		for _, j := range q.Joins {
			li, ri := e.tableIndex(j.LeftTable), e.tableIndex(j.RightTable)
			ljoined := li >= 0 && joined[li]
			rjoined := ri >= 0 && joined[ri]
			var outerC, innerC string
			var outerI, innerI int
			var innerName string
			switch {
			case ljoined && !rjoined:
				outerI, outerC, innerI, innerC, innerName = li, j.LeftColumn, ri, j.RightColumn, j.RightTable
			case rjoined && !ljoined:
				outerI, outerC, innerI, innerC, innerName = ri, j.RightColumn, li, j.LeftColumn, j.LeftTable
			default:
				continue
			}
			if innerI < 0 {
				return 0, 0, engine.Access{}, fmt.Errorf("optimizer: join references table %q not in FROM list", innerName)
			}
			outer, inner := &e.tables[outerI], &e.tables[innerI]
			outRows := JoinCardinality(curRows, outer.meta, outerC, inner.filteredRows, inner.meta, innerC)

			innerChoice := o.entryBestAccess(inner)
			hashCost := innerChoice.estCost + o.CM.HashJoinSec(innerChoice.estRows, curRows)
			step := engine.JoinStep{
				Pred:       j,
				OuterTable: outer.name, OuterColumn: outerC,
				InnerTable: inner.name, InnerColumn: innerC,
				Inner: innerChoice.acc,
				Algo:  engine.JoinHash,
			}
			cnd := cand{step: step, estCost: hashCost, outRows: outRows}

			if nl := o.entryNLAccess(inner, innerC); nl.ok {
				nlCost := o.entryEstimateNLJoin(inner, nl, curRows, outRows)
				if nlCost < cnd.estCost {
					cnd = cand{
						step: engine.JoinStep{
							Pred:       j,
							OuterTable: outer.name, OuterColumn: outerC,
							InnerTable: inner.name, InnerColumn: innerC,
							Inner: nl.acc,
							Algo:  engine.JoinIndexNL,
						},
						estCost: nlCost,
						outRows: outRows,
					}
				}
			}

			if !haveBest || cnd.outRows < best.outRows ||
				(cnd.outRows == best.outRows && cnd.estCost < best.estCost) {
				best, haveBest = cnd, true
			}
		}
		if !haveBest {
			return 0, 0, engine.Access{}, fmt.Errorf("optimizer: query %d join graph is disconnected", q.TemplateID)
		}
		c.curSteps = append(c.curSteps, best.step)
		cost += best.estCost
		curRows = best.outRows
		joined[e.tableIndex(best.step.InnerTable)] = true
		remaining--
	}

	cost += o.CM.OutputSec(curRows, q.AggWidth)
	return cost, curRows, drv, nil
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
