package engine

import (
	"fmt"
	"slices"
	"sync"

	"dbabandits/internal/index"
	"dbabandits/internal/query"
	"dbabandits/internal/storage"
)

// maxTuples bounds intermediate join results; beyond it the executor
// down-samples the tuple set and tracks the sampling factor so that all
// downstream cardinalities remain unbiased.
const maxTuples = 200000

// ExecStats reports the true (simulated) execution of one query: the
// total time, and the per-operator observations the bandit consumes.
type ExecStats struct {
	TotalSec float64
	// OutRows is the true logical output cardinality.
	OutRows float64

	// TableScanSec is Ctab(t, q, emptyset): the full-scan time each
	// referenced table would cost this query, used as the gain baseline.
	TableScanSec map[string]float64
	// IndexAccessSec is Ctab(t, q, {i}): the actual time charged to each
	// secondary index the plan used, keyed by index id.
	IndexAccessSec map[string]IndexAccess

	// Plan is the executed plan; Plan.String() renders it as text.
	Plan *Plan
}

// IndexAccess pairs the table an index belongs to with the access time
// attributed to it (an index is used at most once per plan here).
type IndexAccess struct {
	Table string
	Sec   float64
}

// execScratch is the working memory of one Execute call, reused across
// calls through scratchPool so that a query allocates only its ExecStats.
type execScratch struct {
	// cur and next hold the pipeline's tuples row-major, one stored row
	// id per joined table (stride = tuple width); they swap after every
	// join step.
	cur, next []int32
	// ids holds the inner rows a filtered join step selects; rowSel
	// marks them by row id and bucketSel marks their lookup buckets.
	ids               []int32
	rowSel, bucketSel []bool
	// slots names the table behind each tuple position.
	slots []string
	// seek collects an index access's seek predicates.
	seek []query.Predicate
}

// scratchPool hands each Execute call its own scratch, so concurrent
// callers (fleet tenants) never share one.
var scratchPool = sync.Pool{New: func() any { return new(execScratch) }}

// Execute runs the plan against the database, computing true operator
// times from stored-data cardinalities. It returns an error only for
// malformed plans (unknown tables/columns); optimiser-produced plans are
// always well-formed.
//
// The driver's selection scan seeds the pipeline. Each join step probes
// the inner join column's storage.Lookup, built once per stored column
// and kept with its table; an inner table with filter predicates gets
// one selection scan, whose rows (and their lookup buckets) are marked
// so that unmarked matches are skipped. Matches come in ascending row
// order, so the tuple order and hence the maxTuples down-sampling are
// those of a per-step hash join over the selected rows. Access times are priced apart from the
// scans: they depend on the predicates and on how many rows an index
// seek touches, never on which rows survive the filters.
func Execute(db *storage.Database, p *Plan, cm *CostModel) (*ExecStats, error) {
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
		st.TableScanSec[tname] = cm.TableScanSec(tbl.Meta, filterCount(q, tname))
	}

	sc := scratchPool.Get().(*execScratch)
	defer scratchPool.Put(sc)

	// Driver access.
	driver, ok := db.Table(p.Driver.Table)
	if !ok {
		return nil, fmt.Errorf("engine: unknown driver table %q", p.Driver.Table)
	}
	cur, okSel := driver.AppendSelectRows(sc.cur[:0], q.Filters)
	sc.cur = cur
	if !okSel {
		return nil, fmt.Errorf("engine: predicate on missing column of %s", p.Driver.Table)
	}
	accessSec, err := priceAccess(db, p.Driver, q, cm, sc)
	if err != nil {
		return nil, err
	}
	st.TotalSec += accessSec
	if ix := p.Driver.Index; ix != nil {
		st.IndexAccessSec[ix.ID()] = IndexAccess{Table: ix.Table, Sec: accessSec}
	}

	sc.slots = append(sc.slots[:0], p.Driver.Table)
	logicalFactor := driver.Mult
	sampleFactor := 1.0

	for _, step := range p.Steps {
		inner, ok := db.Table(step.InnerTable)
		if !ok {
			return nil, fmt.Errorf("engine: unknown join table %q", step.InnerTable)
		}
		// The latest slot wins, should a table join in twice.
		outerSlot := len(sc.slots) - 1
		for outerSlot >= 0 && sc.slots[outerSlot] != step.OuterTable {
			outerSlot--
		}
		if outerSlot < 0 {
			return nil, fmt.Errorf("engine: join step on %s references table %s not yet in pipeline", step.InnerTable, step.OuterTable)
		}
		outerTbl := db.MustTable(step.OuterTable)
		outerCol, ok := outerTbl.Column(step.OuterColumn)
		if !ok {
			return nil, fmt.Errorf("engine: unknown join column %s.%s", step.OuterTable, step.OuterColumn)
		}
		lookup, ok := inner.Lookup(step.InnerColumn)
		if !ok {
			return nil, fmt.Errorf("engine: unknown join column %s.%s", step.InnerTable, step.InnerColumn)
		}

		// The lookup is exact in stored space for both algorithms (the
		// difference is only in what the step costs). A filtered inner
		// marks its selected rows and the buckets holding them, so a
		// probe of a bucket with no selected row reads none of its rows.
		innerRows := inner.StoredRows
		var rowSel, bucketSel []bool
		if filterCount(q, step.InnerTable) > 0 {
			ids, okSel := inner.AppendSelectRows(sc.ids[:0], q.Filters)
			sc.ids = ids
			if !okSel {
				return nil, fmt.Errorf("engine: predicate on missing column of %s", step.InnerTable)
			}
			rowSel = resetMarks(&sc.rowSel, inner.StoredRows)
			bucketSel = resetMarks(&sc.bucketSel, lookup.Buckets())
			innerCol := inner.MustColumn(step.InnerColumn)
			for _, r := range ids {
				rowSel[r] = true
				bucketSel[lookup.Bucket(innerCol[r])] = true
			}
			innerRows = len(ids)
		}

		width := len(sc.slots)
		n := len(sc.cur) / width
		out := sc.next[:0]
		for t := 0; t < len(sc.cur); t += width {
			tup := sc.cur[t : t+width]
			b := lookup.Bucket(outerCol[tup[outerSlot]])
			if b < 0 || bucketSel != nil && !bucketSel[b] {
				continue
			}
			for _, r := range lookup.Rows(b) {
				if rowSel != nil && !rowSel[r] {
					continue
				}
				out = append(out, tup...)
				out = append(out, r)
			}
		}
		nOut := len(out) / (width + 1)

		probesLogical := float64(n) * sampleFactor * logicalFactor
		if inner.Mult > logicalFactor {
			logicalFactor = inner.Mult
		}
		outLogical := float64(nOut) * sampleFactor * logicalFactor
		innerMatchedLogical := float64(innerRows) * inner.Mult

		var stepSec float64
		switch step.Algo {
		case JoinHash:
			// Inner side is scanned/accessed once, then hashed.
			innerAccessSec, err := priceAccess(db, step.Inner, q, cm, sc)
			if err != nil {
				return nil, err
			}
			stepSec = innerAccessSec + cm.HashJoinSec(innerMatchedLogical, probesLogical)
			if ix := step.Inner.Index; ix != nil {
				st.IndexAccessSec[ix.ID()] = IndexAccess{Table: ix.Table, Sec: innerAccessSec}
			}
		case JoinIndexNL:
			entryWidth, fetch := nlInnerShape(step.Inner, inner, cm)
			fetchRows := 0.0
			if fetch {
				fetchRows = outLogical
			}
			innerPages := cm.PagesOf(inner.Meta.SizeBytes())
			stepSec = cm.NLJoinSec(probesLogical, outLogical, fetchRows, entryWidth, innerPages)
			// Residual inner predicates are evaluated per matched row.
			if nPreds := filterCount(q, step.InnerTable); nPreds > 0 {
				stepSec += outLogical * float64(nPreds) * cm.CPUPredSec
			}
			if ix := step.Inner.Index; ix != nil {
				st.IndexAccessSec[ix.ID()] = IndexAccess{Table: ix.Table, Sec: stepSec}
			}
		default:
			return nil, fmt.Errorf("engine: unknown join algorithm %d", step.Algo)
		}
		st.TotalSec += stepSec

		sc.slots = append(sc.slots, step.InnerTable)
		if nOut > maxTuples {
			// Keep every k-th tuple, in place.
			k := (nOut + maxTuples - 1) / maxTuples
			w := width + 1
			kept := 0
			for i := 0; i < nOut; i += k {
				copy(out[kept*w:(kept+1)*w], out[i*w:(i+1)*w])
				kept++
			}
			out = out[:kept*w]
			sampleFactor *= float64(k)
		}
		// An empty pipeline still runs the remaining steps, so every
		// inner access is charged (hash builds still happen in a real
		// system).
		sc.cur, sc.next = out, sc.cur
	}

	st.OutRows = float64(len(sc.cur)/len(sc.slots)) * sampleFactor * logicalFactor
	st.TotalSec += cm.OutputSec(st.OutRows, q.AggWidth)
	return st, nil
}

// resetMarks returns (*buf)[:n] all false, growing *buf as needed.
func resetMarks(buf *[]bool, n int) []bool {
	*buf = slices.Grow((*buf)[:0], n)[:n]
	clear(*buf)
	return *buf
}

// filterCount returns how many of the query's filter predicates are on
// the table; FiltersOn without building the slice.
func filterCount(q *query.Query, table string) int {
	n := 0
	for i := range q.Filters {
		if q.Filters[i].Table == table {
			n++
		}
	}
	return n
}

// priceAccess returns the true time of a driver-style access path: a
// plan driver or a hash-join inner side. The time depends on the
// table's filter predicates and, for an index seek, on how many stored
// rows the seek predicates match, but never on which rows survive.
func priceAccess(db *storage.Database, acc Access, q *query.Query, cm *CostModel, sc *execScratch) (float64, error) {
	tbl, ok := db.Table(acc.Table)
	if !ok {
		return 0, fmt.Errorf("engine: unknown table %q", acc.Table)
	}
	nPreds := filterCount(q, acc.Table)

	switch acc.Kind {
	case AccessSeqScan:
		return cm.TableScanSec(tbl.Meta, nPreds), nil

	case AccessIndexSeek, AccessIndexOnly:
		ix := acc.Index
		if ix == nil {
			return 0, fmt.Errorf("engine: %s access on %s without index", acc.Kind, acc.Table)
		}
		entryWidth := float64(ix.EntryWidthBytes(tbl.Meta))
		tablePages := cm.PagesOf(tbl.Meta.SizeBytes())
		sc.seek = appendSeekPreds(sc.seek[:0], ix, q.Filters, acc.Table, acc.EqLen, acc.HasRange)
		if len(sc.seek) == 0 {
			// No usable prefix: full leaf-level scan of the index (only
			// sensible when covering).
			rows := float64(tbl.Meta.RowCount)
			return cm.IndexScanSec(rows, entryWidth, nPreds), nil
		}
		seekStored, okCnt := tbl.CountRows(sc.seek)
		if !okCnt {
			return 0, fmt.Errorf("engine: seek predicate on missing column of %s", acc.Table)
		}
		matchLogical := float64(seekStored) * tbl.Mult
		fetchRows := matchLogical
		if acc.Covering {
			fetchRows = 0
		}
		sec := cm.IndexSeekSec(matchLogical, fetchRows, entryWidth, tablePages)
		if n := nPreds - len(sc.seek); n > 0 {
			sec += matchLogical * float64(n) * cm.CPUPredSec
		}
		return sec, nil

	default:
		return 0, fmt.Errorf("engine: unsupported driver access kind %s", acc.Kind)
	}
}

// appendSeekPreds appends to seek the predicates on table that the
// index seek serves: equalities on the first eqLen key columns plus at
// most one range on the next key column. The table's other predicates
// are residual, evaluated per matched row.
func appendSeekPreds(seek []query.Predicate, ix *index.Index, preds []query.Predicate, table string, eqLen int, hasRange bool) []query.Predicate {
	rangeCol := ""
	if hasRange && eqLen < len(ix.Key) {
		rangeCol = ix.Key[eqLen]
	}
	for _, p := range preds {
		if p.Table != table {
			continue
		}
		if p.IsEquality() {
			if pos := ix.KeyPosition(p.Column); pos >= 0 && pos < eqLen {
				seek = append(seek, p)
			}
		} else if p.Column == rangeCol {
			seek = append(seek, p)
		}
	}
	return seek
}

// nlInnerShape returns the inner entry width and whether matched rows
// need base-table fetches for an index-nested-loop inner access.
func nlInnerShape(acc Access, inner *storage.Table, cm *CostModel) (entryWidth float64, fetch bool) {
	if acc.Kind == AccessClusteredSeek || acc.Index == nil {
		// Clustered access: the "entries" are full rows, no extra fetch.
		return float64(inner.Meta.RowWidthBytes()), false
	}
	return float64(acc.Index.EntryWidthBytes(inner.Meta)), !acc.Covering
}
