package optimizer

import (
	"fmt"

	"dbabandits/internal/catalog"
	"dbabandits/internal/engine"
	"dbabandits/internal/index"
	"dbabandits/internal/query"
)

// Optimizer chooses plans for queries given the current secondary-index
// configuration. Every table additionally has an implicit clustered
// primary-key index (the benchmark schemas ship primary and foreign keys,
// as in the paper's setup); it costs no memory budget.
type Optimizer struct {
	Schema *catalog.Schema
	CM     *engine.CostModel

	// cache is the config-fingerprinted plan/what-if cache (plancache.go);
	// nil disables it and every ChoosePlan runs the full greedy search
	// below. Both paths produce byte-identical plans and costs.
	cache *planCache
}

// New returns an optimiser over the schema with the given cost model.
// The plan cache is enabled; NewUncached builds the uncached reference.
func New(schema *catalog.Schema, cm *engine.CostModel) *Optimizer {
	return &Optimizer{Schema: schema, CM: cm, cache: newPlanCache()}
}

// NewUncached returns an optimiser that re-runs the full greedy search
// on every call — the pre-cache behaviour, kept as the reference that
// the cache-consistency tests and the benchmark's correctness check
// compare the cached optimiser against.
func NewUncached(schema *catalog.Schema, cm *engine.CostModel) *Optimizer {
	return &Optimizer{Schema: schema, CM: cm}
}

// accessChoice is an internal candidate access path with estimates.
type accessChoice struct {
	acc     engine.Access
	estCost float64
	estRows float64 // estimated rows surviving all local filters
}

// ChoosePlan picks a left-deep plan for the query under the configuration
// using estimated costs: every table is tried as the driver, each driver's
// plan is completed greedily, and the cheapest estimated plan wins. The
// returned plan carries EstRows/EstCost.
//
// With the plan cache enabled (New), the search runs once per (query
// instance, relevant-index fingerprint) and repeat calls return the
// memoised plan; the returned *engine.Plan may be shared across calls
// and must be treated as immutable, which engine.Execute honours. The
// cache's one mutex makes a cached Optimizer safe for concurrent
// callers, who serialise on it; cfg must not be mutated while priced.
func (o *Optimizer) ChoosePlan(q *query.Query, cfg *index.Config) (*engine.Plan, error) {
	if o.cache != nil {
		return o.cache.choosePlan(o, q, cfg)
	}
	return o.choosePlanUncached(q, cfg)
}

// choosePlanUncached is the cache-free greedy search.
func (o *Optimizer) choosePlanUncached(q *query.Query, cfg *index.Config) (*engine.Plan, error) {
	if len(q.Tables) == 0 {
		return nil, fmt.Errorf("optimizer: query has no tables")
	}
	metas := make(map[string]*catalog.Table, len(q.Tables))
	filtered := make(map[string]float64, len(q.Tables))
	for _, t := range q.Tables {
		meta, ok := o.Schema.Table(t)
		if !ok {
			return nil, fmt.Errorf("optimizer: unknown table %q", t)
		}
		metas[t] = meta
		filtered[t] = EstimateFilteredRows(meta, q.FiltersOn(t))
	}

	var best *engine.Plan
	var firstErr error
	for _, driver := range q.Tables {
		plan, err := o.planFromDriver(q, cfg, metas, filtered, driver)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if best == nil || plan.EstCost < best.EstCost {
			best = plan
		}
	}
	if best == nil {
		return nil, firstErr
	}
	return best, nil
}

// planFromDriver completes a left-deep plan greedily from a fixed driver.
func (o *Optimizer) planFromDriver(q *query.Query, cfg *index.Config, metas map[string]*catalog.Table, filtered map[string]float64, driver string) (*engine.Plan, error) {
	drvChoice := o.bestAccess(q, metas[driver], cfg)

	plan := &engine.Plan{Query: q, Driver: drvChoice.acc}
	cost := drvChoice.estCost
	curRows := drvChoice.estRows
	joined := map[string]bool{driver: true}

	remaining := len(q.Tables) - 1
	for remaining > 0 {
		// Candidate joins: join predicates connecting a joined table to an
		// un-joined one.
		type cand struct {
			step    engine.JoinStep
			estCost float64
			outRows float64
		}
		var best *cand
		for _, j := range q.Joins {
			var outerT, outerC, innerT, innerC string
			switch {
			case joined[j.LeftTable] && !joined[j.RightTable]:
				outerT, outerC, innerT, innerC = j.LeftTable, j.LeftColumn, j.RightTable, j.RightColumn
			case joined[j.RightTable] && !joined[j.LeftTable]:
				outerT, outerC, innerT, innerC = j.RightTable, j.RightColumn, j.LeftTable, j.LeftColumn
			default:
				continue
			}
			innerMeta, ok := metas[innerT]
			if !ok {
				return nil, fmt.Errorf("optimizer: join references table %q not in FROM list", innerT)
			}
			outRows := JoinCardinality(curRows, metas[outerT], outerC, filtered[innerT], innerMeta, innerC)

			// Hash join option: best standalone inner access + hash cost.
			innerChoice := o.bestAccess(q, innerMeta, cfg)
			hashCost := innerChoice.estCost + o.CM.HashJoinSec(innerChoice.estRows, curRows)
			step := engine.JoinStep{
				Pred:       j,
				OuterTable: outerT, OuterColumn: outerC,
				InnerTable: innerT, InnerColumn: innerC,
				Inner: innerChoice.acc,
				Algo:  engine.JoinHash,
			}
			c := cand{step: step, estCost: hashCost, outRows: outRows}

			// Index-nested-loop option: requires an index whose leading
			// key column is the inner join column.
			if nlAcc, ok := o.nlInnerAccess(q, innerMeta, innerC, cfg); ok {
				nlCost := o.estimateNLJoin(q, innerMeta, nlAcc, curRows, outRows)
				if nlCost < c.estCost {
					c = cand{
						step: engine.JoinStep{
							Pred:       j,
							OuterTable: outerT, OuterColumn: outerC,
							InnerTable: innerT, InnerColumn: innerC,
							Inner: nlAcc,
							Algo:  engine.JoinIndexNL,
						},
						estCost: nlCost,
						outRows: outRows,
					}
				}
			}

			if best == nil || c.outRows < best.outRows ||
				(c.outRows == best.outRows && c.estCost < best.estCost) {
				cc := c
				best = &cc
			}
		}
		if best == nil {
			// Disconnected join graph: fall back to a cartesian-free
			// handling by hash-joining the smallest remaining table on a
			// synthetic always-false edge is wrong; instead surface it.
			return nil, fmt.Errorf("optimizer: query %d join graph is disconnected", q.TemplateID)
		}
		plan.Steps = append(plan.Steps, best.step)
		cost += best.estCost
		curRows = best.outRows
		joined[best.step.InnerTable] = true
		remaining--
	}

	cost += o.CM.OutputSec(curRows, q.AggWidth)
	plan.EstRows = curRows
	plan.EstCost = cost
	return plan, nil
}

// bestAccess picks the cheapest estimated access path for the table's
// local predicates among seq scan and the configuration's indexes.
func (o *Optimizer) bestAccess(q *query.Query, meta *catalog.Table, cfg *index.Config) accessChoice {
	preds := q.FiltersOn(meta.Name)
	estRows := EstimateFilteredRows(meta, preds)

	best := accessChoice{
		acc:     engine.Access{Table: meta.Name, Kind: engine.AccessSeqScan},
		estCost: o.CM.TableScanSec(meta, len(preds)),
		estRows: estRows,
	}
	if cfg == nil {
		return best
	}
	tablePages := o.CM.PagesOf(meta.SizeBytes())
	for _, ix := range cfg.OnTable(meta.Name) {
		eqLen, hasRange := ix.SeekPrefix(preds)
		covering := ix.CoversQueryOn(q, meta.Name)
		if eqLen == 0 && !hasRange && !covering {
			continue
		}
		entryWidth := float64(ix.EntryWidthBytes(meta))
		var cost float64
		kind := engine.AccessIndexSeek
		if covering {
			kind = engine.AccessIndexOnly
		}
		if eqLen == 0 && !hasRange {
			// Covering but no seek prefix: leaf-level scan.
			cost = o.CM.IndexScanSec(float64(meta.RowCount), entryWidth, len(preds))
		} else {
			seekSel := o.seekSelectivity(meta, ix, preds, eqLen, hasRange)
			matchEst := seekSel * float64(meta.RowCount)
			fetch := matchEst
			if covering {
				fetch = 0
			}
			cost = o.CM.IndexSeekSec(matchEst, fetch, entryWidth, tablePages)
			if resid := len(preds) - eqLen; resid > 0 {
				cost += matchEst * float64(resid) * o.CM.CPUPredSec
			}
		}
		if cost < best.estCost {
			best = accessChoice{
				acc: engine.Access{
					Table: meta.Name, Kind: kind, Index: ix,
					EqLen: eqLen, HasRange: hasRange, Covering: covering,
				},
				estCost: cost,
				estRows: estRows,
			}
		}
	}
	return best
}

// seekSelectivity multiplies the selectivities of only the predicates the
// index seek binds (equalities on the first eqLen key columns, plus the
// range on the next key column).
func (o *Optimizer) seekSelectivity(meta *catalog.Table, ix *index.Index, preds []query.Predicate, eqLen int, hasRange bool) float64 {
	rangeCol := ""
	if hasRange && eqLen < len(ix.Key) {
		rangeCol = ix.Key[eqLen]
	}
	sel := 1.0
	for _, p := range preds {
		pos := ix.KeyPosition(p.Column)
		if p.IsEquality() && pos >= 0 && pos < eqLen {
			sel *= Selectivity(meta, p)
		} else if !p.IsEquality() && p.Column == rangeCol {
			sel *= Selectivity(meta, p)
		}
	}
	return clamp01(sel)
}

// nlInnerAccess finds an index usable as the inner side of an
// index-nested-loop join on innerCol: the clustered PK when innerCol
// leads the primary key, else a secondary index with innerCol as its
// leading key column (cheapest entry width wins; covering preferred).
func (o *Optimizer) nlInnerAccess(q *query.Query, meta *catalog.Table, innerCol string, cfg *index.Config) (engine.Access, bool) {
	if len(meta.PK) > 0 && meta.PK[0] == innerCol {
		return engine.Access{Table: meta.Name, Kind: engine.AccessClusteredSeek}, true
	}
	if cfg == nil {
		return engine.Access{}, false
	}
	var best *index.Index
	bestCovering := false
	for _, ix := range cfg.OnTable(meta.Name) {
		if len(ix.Key) == 0 || ix.Key[0] != innerCol {
			continue
		}
		covering := ix.CoversQueryOn(q, meta.Name)
		switch {
		case best == nil,
			covering && !bestCovering,
			covering == bestCovering && ix.EntryWidthBytes(meta) < best.EntryWidthBytes(meta):
			best = ix
			bestCovering = covering
		}
	}
	if best == nil {
		return engine.Access{}, false
	}
	return engine.Access{
		Table: meta.Name, Kind: engine.AccessIndexSeek, Index: best,
		EqLen: 1, Covering: bestCovering,
	}, true
}

// estimateNLJoin prices an index-nested-loop join with estimated
// cardinalities using the same formula the executor charges with true
// ones.
func (o *Optimizer) estimateNLJoin(q *query.Query, innerMeta *catalog.Table, acc engine.Access, probeRows, outRows float64) float64 {
	var entryWidth float64
	fetch := 0.0
	if acc.Kind == engine.AccessClusteredSeek || acc.Index == nil {
		entryWidth = float64(innerMeta.RowWidthBytes())
	} else {
		entryWidth = float64(acc.Index.EntryWidthBytes(innerMeta))
		if !acc.Covering {
			fetch = outRows
		}
	}
	innerPages := o.CM.PagesOf(innerMeta.SizeBytes())
	cost := o.CM.NLJoinSec(probeRows, outRows, fetch, entryWidth, innerPages)
	if n := len(q.FiltersOn(innerMeta.Name)); n > 0 {
		cost += outRows * float64(n) * o.CM.CPUPredSec
	}
	return cost
}
