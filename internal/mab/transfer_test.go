package mab

import (
	"testing"

	"dbabandits/internal/catalog"
	"dbabandits/internal/testdb"
)

func tinySchema(name string, cols ...string) *catalog.Schema {
	t := &catalog.Table{Name: "t", BaseRows: 10, PK: []string{cols[0]}}
	for _, c := range cols {
		t.Columns = append(t.Columns, catalog.Column{
			Kind: catalog.KindInt, Dist: catalog.DistUniform, Name: c, DomainLo: 0, DomainHi: 9,
		})
	}
	return catalog.MustSchema(name, t)
}

func TestSchemaSimilarity(t *testing.T) {
	full := testdb.Schema()
	if got := SchemaSimilarity(full, testdb.Schema()); got != 1 {
		t.Fatalf("identical schemas: similarity %v, want 1", got)
	}
	if got := SchemaSimilarity(nil, full); got != 0 {
		t.Fatalf("nil schema: similarity %v, want 0", got)
	}
	// Same table, columns {a,b,c} vs {a,b,d}: 2 shared of 4 total.
	a := tinySchema("a", "a", "b", "c")
	b := tinySchema("b", "a", "b", "d")
	if got := SchemaSimilarity(a, b); got != 0.5 {
		t.Fatalf("partial overlap: similarity %v, want 0.5", got)
	}
	// Disjoint column spaces share nothing even with equal column names
	// on different tables.
	c := tinySchema("c", "x", "y")
	if got := SchemaSimilarity(a, c); got != 0 {
		t.Fatalf("disjoint schemas: similarity %v, want 0", got)
	}
	if got, want := SchemaSimilarity(a, b), SchemaSimilarity(b, a); got != want {
		t.Fatalf("similarity is not symmetric: %v vs %v", got, want)
	}
}

// TestTransferBasisWarmStartsFromDonor is the transfer seam end to end:
// a donor tuner trained on real rounds is snapshotted, the snapshot
// becomes a TransferBasis, and a fresh tuner warm-started with the
// basis gains acquires non-trivial knowledge (theta moves) without ever
// touching the donor's optimiser or data.
func TestTransferBasisWarmStartsFromDonor(t *testing.T) {
	h := newMiniHarness(t, TunerOptions{})
	for round := 1; round <= 8; round++ {
		h.round(t, selectiveWorkload(round))
	}
	snap, err := h.tuner.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	basis, err := NewTransferBasis(h.schema, snap)
	if err != nil {
		t.Fatal(err)
	}

	training := selectiveWorkload(1)
	predCols := PredicateColumnSet(training)
	dbBytes := h.db.DataSizeBytes()

	// Gains are clamped non-negative (a pessimistic prior would suppress
	// exploration forever), including for arms on tables the donor never
	// had a dimension for.
	for _, arm := range []*Arm{
		mkArm("orders", []string{"o_date"}, 1000, 1),
		mkArm("no_such_table", []string{"ghost"}, 1000, 1),
	} {
		if g := basis.Gain(arm, predCols, dbBytes); g < 0 {
			t.Fatalf("arm %s: negative transfer gain %v", arm.ID(), g)
		}
	}

	fresh := NewTuner(h.schema, dbBytes, TunerOptions{MemoryBudgetBytes: dbBytes})
	fresh.WarmStart(training, func(a *Arm) float64 {
		return basis.Gain(a, predCols, dbBytes)
	}, 2)
	if fresh.Bandit().state.Updates() == 0 {
		t.Fatal("transfer warm start produced no observations")
	}
	if sqNorm(fresh.Bandit().state.Theta()) == 0 {
		t.Fatal("transfer gains were uniformly zero: donor knowledge did not reach the recipient")
	}
}

// TestTransferBasisDimHandling pins the snapshot/schema dimension
// contract: analytical and update-aware donor layouts are both
// recognised, anything else is refused.
func TestTransferBasisDimHandling(t *testing.T) {
	schema, db := testdb.Build(1)
	dbBytes := db.DataSizeBytes()

	// Update-aware donor: snapshot dim is cols+derived+update dims; the
	// basis must detect the layout instead of refusing it.
	donor := NewTuner(schema, dbBytes, TunerOptions{MemoryBudgetBytes: dbBytes, UpdateAwareContext: true})
	snap, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTransferBasis(schema, snap); err != nil {
		t.Fatalf("update-aware donor snapshot refused: %v", err)
	}

	// A dimension matching neither layout is a different tuner's
	// snapshot and must error, not misproject.
	snap.Bandit.Ridge.Dim++
	if _, err := NewTransferBasis(schema, snap); err == nil {
		t.Fatal("mismatched snapshot dimension accepted")
	}

	if _, err := NewTransferBasis(nil, snap); err == nil {
		t.Fatal("nil donor schema accepted")
	}
	if _, err := NewTransferBasis(schema, nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
}
