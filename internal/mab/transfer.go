package mab

import (
	"fmt"

	"dbabandits/internal/catalog"
	"dbabandits/internal/linalg"
	"dbabandits/internal/query"
)

// This file is the cross-tenant transfer seam of the fleet layer: the
// context featurisation is schema-keyed (one dimension per (table,
// column) pair, enumerated in sorted order), so two tenants' learned
// posteriors are comparable exactly to the extent their schemas share
// columns. SchemaSimilarity quantifies that overlap, and TransferBasis
// turns a trained donor tuner's snapshot into a per-arm gain estimate a
// newly admitted tenant can warm-start from (Tuner.WarmStart) — the
// donor's posterior mean predicts the reward of each recipient arm
// through the donor's own featurisation, mapping shared columns by name
// and silently skipping columns the donor never had.

// SchemaSimilarity is the Jaccard similarity of two schemas' context
// key spaces — the (table, column) pairs the featurisation enumerates
// into dimensions. 1 means the schemas induce identical column
// dimensions (transfer maps the full posterior); 0 means no shared
// columns (nothing maps and a warm start from this donor is a no-op).
func SchemaSimilarity(a, b *catalog.Schema) float64 {
	if a == nil || b == nil {
		return 0
	}
	refs := func(s *catalog.Schema) map[query.ColumnRef]bool {
		out := map[query.ColumnRef]bool{}
		for _, tn := range s.SortedTableNames() {
			t := s.MustTable(tn)
			for i := range t.Columns {
				out[query.ColumnRef{Table: tn, Column: t.Columns[i].Name}] = true
			}
		}
		return out
	}
	ra, rb := refs(a), refs(b)
	inter := 0
	for ref := range ra {
		if rb[ref] {
			inter++
		}
	}
	union := len(ra) + len(rb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// TransferBasis is a trained donor tuner's learned posterior mean bound
// to the donor's own context featurisation. Gain scores a recipient arm
// the way the donor's bandit would have scored it (exploitation only):
// the arm's context is built in the DONOR's dimension space — shared
// (table, column) pairs map by name, columns the donor schema lacks
// contribute nothing — and dotted with the donor's theta.
type TransferBasis struct {
	cb    *ContextBuilder
	theta linalg.Vector
}

// NewTransferBasis derives the basis from the donor's schema and a
// round-boundary tuner snapshot. The snapshot's ridge dimensionality
// must match the schema's featurisation (with or without the HTAP
// update-sensitivity dimensions — both layouts are recognised); any
// other dimension means snapshot and schema are from different tuners.
func NewTransferBasis(schema *catalog.Schema, snap *TunerSnapshot) (*TransferBasis, error) {
	if schema == nil || snap == nil || snap.Bandit == nil || snap.Bandit.Ridge == nil {
		return nil, fmt.Errorf("mab: transfer basis needs a donor schema and a bandit snapshot")
	}
	cb := NewContextBuilder(schema)
	if dim := snap.Bandit.Ridge.Dim; dim != cb.Dim() {
		cb.UpdateDims = true
		if dim != cb.Dim() {
			return nil, fmt.Errorf("mab: donor snapshot dimension %d does not match donor schema featurisation (%d analytical, %d update-aware)",
				dim, cb.Dim()-updateDims, cb.Dim())
		}
	}
	rs, err := linalg.RestoreRidgeState(snap.Bandit.Ridge)
	if err != nil {
		return nil, fmt.Errorf("mab: transfer basis: %w", err)
	}
	// The restored state is discarded; only the posterior mean is kept.
	return &TransferBasis{cb: cb, theta: rs.Theta()}, nil
}

// Gain is the donor-predicted per-round gain of the arm for a workload
// with the given predicate columns, suitable as the estimateGain of
// Tuner.WarmStart. The arm is projected as already materialised: the
// what-if warm start this mirrors estimates pure execution benefit
// (cost without the index minus cost with it), and the donor's
// posterior prices one-time creation through the size component — a
// penalty that belongs to the recipient's own accounting, not to the
// transferred steady-state value of owning the index. Like the what-if
// warm start, estimates are clamped non-negative: a pessimistic prior
// would permanently suppress exploration of the arm.
func (tb *TransferBasis) Gain(a *Arm, predCols map[query.ColumnRef]bool, dbBytes int64) float64 {
	x := tb.cb.Build(a, ArmInfo{
		PredicateColumns: predCols,
		Materialised:     true,
		DatabaseBytes:    dbBytes,
	})
	g := tb.theta.DotSparse(x)
	if g < 0 {
		g = 0
	}
	return g
}
