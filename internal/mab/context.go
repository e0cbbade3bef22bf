package mab

import (
	"math"
	"sort"

	"dbabandits/internal/catalog"
	"dbabandits/internal/linalg"
	"dbabandits/internal/query"
)

// ContextBuilder produces the per-arm context vectors (Section IV,
// "Context engineering"). The vector has one component per database
// column (Part 1: indexed-column-prefix encoding) plus three derived
// components (Part 2): a covering flag, the relative index size (zero
// when already materialised), and usage information from prior rounds.
//
// Contexts are emitted sparse: at most one non-zero per key column plus
// the three derived components, out of a dimension that grows with the
// whole schema. The sparse ridge kernels exploit exactly this shape.
type ContextBuilder struct {
	schema *catalog.Schema
	colIdx map[query.ColumnRef]int // (table, column) -> dimension
	cols   int                     // column-dimension count (Part 1)

	// UpdateDims appends the two update-sensitivity components of the
	// HTAP extension ("No DBA? No regret!"): the arm's decayed churn
	// exposure and its size-weighted churn (a linear proxy for modelled
	// maintenance cost). Set it before Dim is consumed — it changes the
	// context dimensionality, so analytical runs leave it off and remain
	// bit-identical to the pre-HTAP tuner.
	UpdateDims bool
}

// Derived-part dimension count: covering flag, relative size, usage.
const derivedDims = 3

// Update-sensitivity dimension count: churn exposure, size-weighted
// churn. Appended above the derived part only when UpdateDims is set.
const updateDims = 2

// NewContextBuilder enumerates the schema's columns into dimensions.
func NewContextBuilder(schema *catalog.Schema) *ContextBuilder {
	cb := &ContextBuilder{schema: schema, colIdx: map[query.ColumnRef]int{}}
	names := schema.SortedTableNames()
	d := 0
	for _, tn := range names {
		t := schema.MustTable(tn)
		cols := make([]string, len(t.Columns))
		for i := range t.Columns {
			cols[i] = t.Columns[i].Name
		}
		sort.Strings(cols)
		for _, c := range cols {
			cb.colIdx[query.ColumnRef{Table: tn, Column: c}] = d
			d++
		}
	}
	cb.cols = d
	return cb
}

// Dim returns the context dimensionality.
func (cb *ContextBuilder) Dim() int {
	d := cb.cols + derivedDims
	if cb.UpdateDims {
		d += updateDims
	}
	return d
}

// ArmInfo carries the dynamic inputs of a context vector.
type ArmInfo struct {
	// PredicateColumns holds every column that appears as a filter or
	// join predicate in the queries of interest; only these key columns
	// receive non-zero Part 1 components (payload-only columns are zero —
	// see the paper's Example 3). Keyed by (table, column) struct so the
	// per-arm lookups never build key strings.
	PredicateColumns map[query.ColumnRef]bool
	// Materialised reports whether the arm's index currently exists; a
	// materialised index has zero relative-size component (no further
	// creation cost).
	Materialised bool
	// Usage is the arm's decayed historical usage statistic (D3).
	Usage float64
	// DatabaseBytes normalises the size component.
	DatabaseBytes int64
	// Churn is the arm's decayed update-churn exposure (D4, HTAP only):
	// the fraction of its table's rows recently written in a way that
	// forces maintenance on this index. Ignored unless the builder's
	// UpdateDims is set.
	Churn float64
}

// Build assembles the sparse context vector for one arm, in freshly
// allocated storage the caller owns. Entries are returned in ascending
// index order; zero-valued components (payload-only key columns, unset
// derived statistics) are simply absent, which the sparse kernels treat
// identically to explicit zeros.
func (cb *ContextBuilder) Build(arm *Arm, info ArmInfo) linalg.SparseVector {
	var a linalg.SparseArena
	return cb.BuildArena(arm, info, &a)
}

// BuildArena is Build into caller-supplied arena storage — the
// recommend loop's warm path. The returned vector aliases the arena and
// follows its lifetime discipline (valid until the arena's next Reset);
// the entry values are identical to Build's.
func (cb *ContextBuilder) BuildArena(arm *Arm, info ArmInfo, a *linalg.SparseArena) linalg.SparseVector {
	a.Grow(len(arm.Index.Key) + derivedDims + updateDims)
	mark := a.Mark()
	for j, col := range arm.Index.Key {
		key := query.ColumnRef{Table: arm.Table, Column: col}
		if !info.PredicateColumns[key] {
			continue
		}
		idx, ok := cb.colIdx[key]
		if !ok {
			continue
		}
		a.Append(idx, math.Pow(10, -float64(j)))
	}
	x := a.Take(cb.Dim(), mark)
	// Key columns arrive in key order, not dimension order.
	x.Sort()
	// The derived components occupy the top dimensions, above every
	// column dimension, so appending after the sort keeps order.
	base := cb.cols
	if arm.IsCovering() {
		a.Append(base, 1)
	}
	if !info.Materialised && info.DatabaseBytes > 0 {
		a.Append(base+1, float64(arm.SizeBytes)/float64(info.DatabaseBytes))
	}
	if info.Usage != 0 {
		a.Append(base+2, info.Usage)
	}
	if cb.UpdateDims && info.Churn != 0 {
		// D4: churn exposure. D5: size-weighted churn — written rows ×
		// entry width scales with churn × index size, so this component
		// is a linear proxy for the maintenance seconds the reward will
		// subtract, normalised like the size component.
		a.Append(base+derivedDims, info.Churn)
		if info.DatabaseBytes > 0 {
			a.Append(base+derivedDims+1, info.Churn*float64(arm.SizeBytes)/float64(info.DatabaseBytes))
		}
	}
	return a.Take(cb.Dim(), mark)
}
