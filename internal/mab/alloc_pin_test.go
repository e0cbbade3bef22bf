package mab

import (
	"testing"

	"dbabandits/internal/linalg"
)

// The warm-path allocation pins below assert exact allocation counts,
// which the race detector's instrumentation perturbs; the pins are
// skipped under -race (the aliasing property tests still run there).

// TestWarmContextBuildAllocs pins the arena-backed context build at
// zero allocations once the arena has grown to the round's footprint:
// the whole TPC-DS candidate set rebuilt into a recycled arena must not
// touch the heap.
func TestWarmContextBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not stable under the race detector")
	}
	schema, db, wls := tpcdsBenchFixture(t, 1)
	ctxb := NewContextBuilder(schema)
	gen := NewArmGenerator(schema)
	arms := gen.Generate(wls[0])
	info := ArmInfo{
		PredicateColumns: PredicateColumnSet(wls[0]),
		DatabaseBytes:    db.DataSizeBytes(),
	}
	var arena linalg.SparseArena
	build := func() {
		arena.Reset()
		for _, a := range arms {
			ctxb.BuildArena(a, info, &arena)
		}
	}
	build() // grow the arena to the round's footprint
	if got := testing.AllocsPerRun(20, build); got != 0 {
		t.Fatalf("warm arena-backed Build of %d contexts allocated %v times per round, want 0", len(arms), got)
	}
}

// TestWarmGenerateAllocs pins the memoised arm-generation path at its
// contractual floor: replaying the workload the generator saw last costs
// exactly one allocation — the fresh result slice Generate must return
// (callers may reorder and retain it; the *Arm values are memoised).
func TestWarmGenerateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not stable under the race detector")
	}
	schema, _, wls := tpcdsBenchFixture(t, 1)
	gen := NewArmGenerator(schema)
	gen.Generate(wls[0]) // populate the memo
	if got := testing.AllocsPerRun(20, func() { gen.Generate(wls[0]) }); got != 1 {
		t.Fatalf("warm Generate allocated %v times per call, want exactly 1 (the fresh result slice)", got)
	}
}
