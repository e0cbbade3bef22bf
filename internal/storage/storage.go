// Package storage holds the physical, in-memory representation of the
// benchmark databases. Tables are stored column-major as int64 arrays.
//
// Scale handling: logical row counts at a given scale factor can reach
// hundreds of millions; storing them is unnecessary because every cost in
// the simulator is linear in row/page counts. Each stored table therefore
// keeps at most a capped number of physical rows drawn from the same
// distributions, plus a row multiplier Mult such that
//
//	logical rows = stored rows x Mult.
//
// Predicates are genuinely evaluated against stored rows; all resulting
// cardinalities are scaled by Mult when converted to costs. Foreign keys
// are generated against the referenced table's stored key domain so that
// joins remain exact in stored space.
package storage

import (
	"fmt"
	"slices"

	"dbabandits/internal/catalog"
	"dbabandits/internal/query"
)

// Table is the physical storage of one logical table.
//
// Stored columns are immutable: datagen writes Cols while it builds the
// database and nothing writes them afterwards (HTAP updates are priced,
// never applied). The per-column join lookups rely on this, since each
// is built once from its column and kept for the life of the table.
// A Table must not be copied after first use.
type Table struct {
	Meta       *catalog.Table
	Cols       [][]int64 // column-major; parallel to Meta.Columns
	StoredRows int
	Mult       float64 // logical rows / stored rows (>= 1)

	lookups lookups
}

// Column returns the physical column array by name.
func (t *Table) Column(name string) ([]int64, bool) {
	i := t.Meta.ColumnIndex(name)
	if i < 0 {
		return nil, false
	}
	return t.Cols[i], true
}

// MustColumn is Column that panics when missing; for internal call sites
// that have already validated the query against the schema.
func (t *Table) MustColumn(name string) []int64 {
	c, ok := t.Column(name)
	if !ok {
		panic(fmt.Sprintf("storage: table %q has no column %q", t.Meta.Name, name))
	}
	return c
}

// LogicalRows returns the scaled logical row count.
func (t *Table) LogicalRows() float64 { return float64(t.StoredRows) * t.Mult }

// AppendSelectRows appends to dst the ids of the stored rows matching
// the conjunction of this table's predicates in preds, in ascending
// order, and returns the extended slice; predicates on other tables are
// ignored. It filters a column at a time: the first predicate scans its
// column, and each further one keeps the ids whose value it matches. On
// a predicate referencing a missing column it returns ok=false and dst
// cut back to its original length.
func (t *Table) AppendSelectRows(dst []int32, preds []query.Predicate) ([]int32, bool) {
	base := len(dst)
	scanned := false
	for _, p := range preds {
		if p.Table != t.Meta.Name {
			continue
		}
		col, ok := t.Column(p.Column)
		if !ok {
			return dst[:base], false
		}
		lo, hi := p.Bounds()
		if lo > hi {
			// Nothing matches; later predicates still check their columns.
			dst, scanned = dst[:base], true
			continue
		}
		// Branch-free filters: write every candidate id and advance past
		// the matches. With lo <= hi, v lies in [lo, hi] exactly when
		// v-lo, taken unsigned, is at most hi-lo.
		span := uint64(hi - lo)
		n := base
		if !scanned {
			scanned = true
			dst = slices.Grow(dst, t.StoredRows)[:base+t.StoredRows]
			for r, v := range col[:t.StoredRows] {
				dst[n] = int32(r)
				if uint64(v-lo) <= span {
					n++
				}
			}
		} else {
			for _, r := range dst[base:] {
				dst[n] = r
				if uint64(col[r]-lo) <= span {
					n++
				}
			}
		}
		dst = dst[:n]
	}
	if !scanned {
		dst = slices.Grow(dst, t.StoredRows)
		for r := 0; r < t.StoredRows; r++ {
			dst = append(dst, int32(r))
		}
	}
	return dst, true
}

// countBlock is how many rows CountRows filters at a time.
const countBlock = 256

// CountRows returns only the number of stored rows matching the
// conjunction; cheaper than AppendSelectRows when ids are not needed. It
// filters a block of rows at a time, a column at a time, in a
// fixed-size mask, so it allocates nothing.
func (t *Table) CountRows(preds []query.Predicate) (int, bool) {
	filtered := false
	for _, p := range preds {
		if p.Table != t.Meta.Name {
			continue
		}
		if _, ok := t.Column(p.Column); !ok {
			return 0, false
		}
		filtered = true
	}
	if !filtered {
		return t.StoredRows, true
	}
	var miss [countBlock]bool
	n := 0
	for base := 0; base < t.StoredRows; base += countBlock {
		blk := miss[:min(countBlock, t.StoredRows-base)]
		clear(blk)
		for _, p := range preds {
			if p.Table != t.Meta.Name {
				continue
			}
			lo, hi := p.Bounds()
			if lo > hi {
				return 0, true
			}
			// v lies in [lo, hi] exactly when v-lo, taken unsigned, is
			// at most hi-lo.
			span := uint64(hi - lo)
			for i, v := range t.MustColumn(p.Column)[base : base+len(blk)] {
				blk[i] = blk[i] || uint64(v-lo) > span
			}
		}
		for _, m := range blk {
			if !m {
				n++
			}
		}
	}
	return n, true
}

// Selectivity returns the true fraction of stored rows matching the
// conjunction of predicates on this table (1.0 when there are none).
func (t *Table) Selectivity(preds []query.Predicate) float64 {
	if t.StoredRows == 0 {
		return 0
	}
	n, ok := t.CountRows(preds)
	if !ok {
		return 0
	}
	return float64(n) / float64(t.StoredRows)
}

// Database is a schema plus its physical tables.
type Database struct {
	Schema *catalog.Schema
	Tables map[string]*Table
}

// Table returns the physical table by name.
func (d *Database) Table(name string) (*Table, bool) {
	t, ok := d.Tables[name]
	return t, ok
}

// MustTable panics when the table is missing.
func (d *Database) MustTable(name string) *Table {
	t, ok := d.Tables[name]
	if !ok {
		panic(fmt.Sprintf("storage: no table %q", name))
	}
	return t
}

// DataSizeBytes returns the logical data size; the experiment memory
// budget is expressed as a multiple of this.
func (d *Database) DataSizeBytes() int64 { return d.Schema.DataSizeBytes() }
