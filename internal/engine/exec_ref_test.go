package engine

// This file keeps the executor as it was before the flat-buffer rewrite:
// one []int32 per tuple, a map[int64][]int32 join lookup and a
// selection scan inside every access it prices. It is the oracle the
// property tests hold Execute to, bit for bit; only the names changed
// (and PlanDesc became Plan).

import (
	"fmt"

	"dbabandits/internal/index"
	"dbabandits/internal/query"
	"dbabandits/internal/storage"
)

// executeRef runs the plan against the database, computing true operator
// times from stored-data cardinalities. It returns an error only for
// malformed plans (unknown tables/columns); optimiser-produced plans are
// always well-formed.
func executeRef(db *storage.Database, p *Plan, cm *CostModel) (*ExecStats, error) {
	q := p.Query
	st := &ExecStats{
		TableScanSec:   make(map[string]float64, len(q.Tables)),
		IndexAccessSec: make(map[string]IndexAccess),
		Plan:           p,
	}

	// Baseline full-scan times for every referenced table (analytic).
	for _, tname := range q.Tables {
		tbl, ok := db.Table(tname)
		if !ok {
			return nil, fmt.Errorf("engine: unknown table %q", tname)
		}
		st.TableScanSec[tname] = cm.TableScanSec(tbl.Meta, len(q.FiltersOn(tname)))
	}

	// Driver access.
	driver, ok := db.Table(p.Driver.Table)
	if !ok {
		return nil, fmt.Errorf("engine: unknown driver table %q", p.Driver.Table)
	}
	rowids, accessSec, err := executeAccessRef(db, p.Driver, q, cm)
	if err != nil {
		return nil, err
	}
	st.TotalSec += accessSec
	if ix := p.Driver.Index; ix != nil {
		st.IndexAccessSec[ix.ID()] = IndexAccess{Table: ix.Table, Sec: accessSec}
	}

	tuples := make([][]int32, len(rowids))
	for i, r := range rowids {
		tuples[i] = []int32{r}
	}
	tableSlot := map[string]int{p.Driver.Table: 0}
	logicalFactor := driver.Mult
	sampleFactor := 1.0
	curWidth := 1 // tuple width; tracked separately so empty pipelines keep slot accounting

	for _, step := range p.Steps {
		inner, ok := db.Table(step.InnerTable)
		if !ok {
			return nil, fmt.Errorf("engine: unknown join table %q", step.InnerTable)
		}
		outerSlot, ok := tableSlot[step.OuterTable]
		if !ok {
			return nil, fmt.Errorf("engine: join step on %s references table %s not yet in pipeline", step.InnerTable, step.OuterTable)
		}
		outerTbl := db.MustTable(step.OuterTable)
		outerCol, ok := outerTbl.Column(step.OuterColumn)
		if !ok {
			return nil, fmt.Errorf("engine: unknown join column %s.%s", step.OuterTable, step.OuterColumn)
		}
		innerCol, ok := inner.Column(step.InnerColumn)
		if !ok {
			return nil, fmt.Errorf("engine: unknown join column %s.%s", step.InnerTable, step.InnerColumn)
		}

		innerPreds := q.FiltersOn(step.InnerTable)
		innerIDs, okSel := inner.AppendSelectRows(nil, innerPreds)
		if !okSel {
			return nil, fmt.Errorf("engine: predicate on missing column of %s", step.InnerTable)
		}

		// Hash lookup from inner join-column value to inner row ids;
		// exact in stored space for both algorithms (the difference is
		// only in what the step costs).
		lookup := make(map[int64][]int32, len(innerIDs))
		for _, r := range innerIDs {
			v := innerCol[r]
			lookup[v] = append(lookup[v], r)
		}

		width := curWidth
		var out [][]int32
		for _, tup := range tuples {
			v := outerCol[tup[outerSlot]]
			for _, r := range lookup[v] {
				nt := make([]int32, width+1)
				copy(nt, tup)
				nt[width] = r
				out = append(out, nt)
			}
		}

		probesLogical := float64(len(tuples)) * sampleFactor * logicalFactor
		if inner.Mult > logicalFactor {
			logicalFactor = inner.Mult
		}
		outLogical := float64(len(out)) * sampleFactor * logicalFactor
		innerMatchedLogical := float64(len(innerIDs)) * inner.Mult

		var stepSec float64
		switch step.Algo {
		case JoinHash:
			// Inner side is scanned/accessed once, then hashed.
			_, innerAccessSec, err := executeAccessRef(db, step.Inner, q, cm)
			if err != nil {
				return nil, err
			}
			stepSec = innerAccessSec + cm.HashJoinSec(innerMatchedLogical, probesLogical)
			if ix := step.Inner.Index; ix != nil {
				st.IndexAccessSec[ix.ID()] = IndexAccess{Table: ix.Table, Sec: innerAccessSec}
			}
		case JoinIndexNL:
			entryWidth, fetch := nlInnerShapeRef(step.Inner, inner, cm)
			fetchRows := 0.0
			if fetch {
				fetchRows = outLogical
			}
			innerPages := cm.PagesOf(inner.Meta.SizeBytes())
			stepSec = cm.NLJoinSec(probesLogical, outLogical, fetchRows, entryWidth, innerPages)
			// Residual inner predicates are evaluated per matched row.
			if n := len(innerPreds); n > 0 {
				stepSec += outLogical * float64(n) * cm.CPUPredSec
			}
			if ix := step.Inner.Index; ix != nil {
				st.IndexAccessSec[ix.ID()] = IndexAccess{Table: ix.Table, Sec: stepSec}
			}
		default:
			return nil, fmt.Errorf("engine: unknown join algorithm %d", step.Algo)
		}
		st.TotalSec += stepSec

		tableSlot[step.InnerTable] = width
		curWidth = width + 1
		tuples = out
		if len(tuples) > maxTuples {
			k := (len(tuples) + maxTuples - 1) / maxTuples
			sampled := tuples[:0]
			for i := 0; i < len(tuples); i += k {
				sampled = append(sampled, tuples[i])
			}
			tuples = sampled
			sampleFactor *= float64(k)
		}
		if len(tuples) == 0 {
			// Join produced nothing; remaining steps cost their inner
			// access only (hash builds still happen in a real system).
			// Keep iterating so every inner access is charged.
			continue
		}
	}

	st.OutRows = float64(len(tuples)) * sampleFactor * logicalFactor
	st.TotalSec += cm.OutputSec(st.OutRows, q.AggWidth)
	return st, nil
}

// executeAccessRef evaluates a driver-style access path: the matching stored
// row ids after all the table's filter predicates, and the true access
// time. Used for plan drivers and hash-join inner sides.
func executeAccessRef(db *storage.Database, acc Access, q *query.Query, cm *CostModel) ([]int32, float64, error) {
	tbl, ok := db.Table(acc.Table)
	if !ok {
		return nil, 0, fmt.Errorf("engine: unknown table %q", acc.Table)
	}
	preds := q.FiltersOn(acc.Table)
	rowids, okSel := tbl.AppendSelectRows(nil, preds)
	if !okSel {
		return nil, 0, fmt.Errorf("engine: predicate on missing column of %s", acc.Table)
	}

	switch acc.Kind {
	case AccessSeqScan:
		return rowids, cm.TableScanSec(tbl.Meta, len(preds)), nil

	case AccessIndexSeek, AccessIndexOnly:
		ix := acc.Index
		if ix == nil {
			return nil, 0, fmt.Errorf("engine: %s access on %s without index", acc.Kind, acc.Table)
		}
		entryWidth := float64(ix.EntryWidthBytes(tbl.Meta))
		tablePages := cm.PagesOf(tbl.Meta.SizeBytes())
		seek, residual := splitSeekPredsRef(ix, preds, acc.EqLen, acc.HasRange)
		if len(seek) == 0 {
			// No usable prefix: full leaf-level scan of the index (only
			// sensible when covering).
			rows := float64(tbl.Meta.RowCount)
			sec := cm.IndexScanSec(rows, entryWidth, len(preds))
			return rowids, sec, nil
		}
		seekStored, okCnt := tbl.CountRows(seek)
		if !okCnt {
			return nil, 0, fmt.Errorf("engine: seek predicate on missing column of %s", acc.Table)
		}
		matchLogical := float64(seekStored) * tbl.Mult
		fetchRows := matchLogical
		if acc.Covering {
			fetchRows = 0
		}
		sec := cm.IndexSeekSec(matchLogical, fetchRows, entryWidth, tablePages)
		if n := len(residual); n > 0 {
			sec += matchLogical * float64(n) * cm.CPUPredSec
		}
		return rowids, sec, nil

	default:
		return nil, 0, fmt.Errorf("engine: unsupported driver access kind %s", acc.Kind)
	}
}

// splitSeekPredsRef partitions the table's predicates into those served by
// the index seek (equalities on the first eqLen key columns plus at most
// one range on the next key column) and the residual ones evaluated per
// matched row.
func splitSeekPredsRef(ix *index.Index, preds []query.Predicate, eqLen int, hasRange bool) (seek, residual []query.Predicate) {
	rangeCol := ""
	if hasRange && eqLen < len(ix.Key) {
		rangeCol = ix.Key[eqLen]
	}
	for _, p := range preds {
		pos := ix.KeyPosition(p.Column)
		switch {
		case p.IsEquality() && pos >= 0 && pos < eqLen:
			seek = append(seek, p)
		case !p.IsEquality() && p.Column == rangeCol:
			seek = append(seek, p)
		default:
			residual = append(residual, p)
		}
	}
	return seek, residual
}

// nlInnerShapeRef returns the inner entry width and whether matched rows
// need base-table fetches for an index-nested-loop inner access.
func nlInnerShapeRef(acc Access, inner *storage.Table, cm *CostModel) (entryWidth float64, fetch bool) {
	if acc.Kind == AccessClusteredSeek || acc.Index == nil {
		// Clustered access: the "entries" are full rows, no extra fetch.
		return float64(inner.Meta.RowWidthBytes()), false
	}
	return float64(acc.Index.EntryWidthBytes(inner.Meta)), !acc.Covering
}
