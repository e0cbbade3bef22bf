package mab

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dbabandits/internal/linalg"
)

// TestTunerSnapshotRoundTrip snapshots a live tuner mid-run (through a
// JSON round-trip, as the serve checkpoint does), restores it into a
// freshly constructed tuner, and requires the two to agree byte for
// byte — identical recommendations every remaining round and identical
// final snapshots — on both ridge backends.
func TestTunerSnapshotRoundTrip(t *testing.T) {
	for _, backend := range linalg.RidgeBackends() {
		t.Run(backend, func(t *testing.T) {
			opts := TunerOptions{RidgeBackend: backend}
			h := newMiniHarness(t, opts)
			for round := 1; round <= 5; round++ {
				h.round(t, selectiveWorkload(round))
			}

			snap, err := h.tuner.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			var decoded TunerSnapshot
			if err := json.Unmarshal(raw, &decoded); err != nil {
				t.Fatal(err)
			}

			h2 := newMiniHarness(t, opts)
			if err := h2.tuner.Restore(&decoded); err != nil {
				t.Fatal(err)
			}
			h2.lastWorkload = h.lastWorkload

			if got, want := h2.tuner.Config().IDs(), h.tuner.Config().IDs(); strings.Join(got, ";") != strings.Join(want, ";") {
				t.Fatalf("restored config %v, want %v", got, want)
			}

			for round := 6; round <= 10; round++ {
				wl := selectiveWorkload(round)
				h.round(t, wl)
				h2.round(t, wl)
				got := strings.Join(h2.tuner.Config().IDs(), ";")
				want := strings.Join(h.tuner.Config().IDs(), ";")
				if got != want {
					t.Fatalf("round %d: restored config %q, want %q", round, got, want)
				}
			}

			finalA, err := h.tuner.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			finalB, err := h2.tuner.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			ja, _ := json.Marshal(finalA)
			jb, _ := json.Marshal(finalB)
			if !bytes.Equal(ja, jb) {
				t.Fatalf("final snapshots diverge:\n%s\nvs\n%s", ja, jb)
			}
		})
	}
}

// TestTunerSnapshotRefusesMidRound pins the round-boundary contract:
// between Recommend and ObserveExecution the pending feedback state is
// not serialisable and Snapshot must refuse.
func TestTunerSnapshotRefusesMidRound(t *testing.T) {
	h := newMiniHarness(t, TunerOptions{})
	h.round(t, selectiveWorkload(1))
	h.tuner.Recommend(h.lastWorkload)
	if _, err := h.tuner.Snapshot(); err == nil {
		t.Fatal("mid-round snapshot accepted")
	}
}

// TestTunerRestoreRejectsDimensionMismatch pins that a snapshot taken
// under different context options (different dimensionality) is
// refused rather than silently misapplied.
func TestTunerRestoreRejectsDimensionMismatch(t *testing.T) {
	h := newMiniHarness(t, TunerOptions{})
	h.round(t, selectiveWorkload(1))
	snap, err := h.tuner.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	h2 := newMiniHarness(t, TunerOptions{UpdateAwareContext: true})
	if err := h2.tuner.Restore(snap); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

// TestForgetRankThreading pins the knob plumbing: TunerOptions.ForgetRank
// reaches the SM ridge state (and is a silent no-op on the factored
// backend), and a snapshot/restore round-trip re-applies it —
// configuration is not state, so the restored bandit must behave like
// the original without the checkpoint carrying it.
func TestForgetRankThreading(t *testing.T) {
	schema, db, _ := tpcdsBenchFixture(t, 1)
	dbSize := db.DataSizeBytes()
	tuner := NewTuner(schema, dbSize, TunerOptions{
		RidgeBackend: linalg.BackendSM,
		ForgetRank:   16,
	})
	bandit := tuner.Bandit()
	rs, ok := bandit.state.(*linalg.RidgeState)
	if !ok {
		t.Fatalf("sm backend state is %T", bandit.state)
	}
	if rs.ForgetRank != 16 {
		t.Fatalf("ForgetRank not threaded to ridge state: %d", rs.ForgetRank)
	}

	snap := bandit.Snapshot()
	if err := bandit.Restore(snap); err != nil {
		t.Fatal(err)
	}
	rs2, ok := bandit.state.(*linalg.RidgeState)
	if !ok {
		t.Fatalf("restored state is %T", bandit.state)
	}
	if rs2 == rs {
		t.Fatal("restore did not rebuild the ridge core — re-application untested")
	}
	if rs2.ForgetRank != 16 {
		t.Fatalf("restore dropped ForgetRank: %d", rs2.ForgetRank)
	}

	// The factored backend has no inverse to budget: the setter must be a
	// no-op, not a crash.
	cholTuner := NewTuner(schema, dbSize, TunerOptions{
		RidgeBackend: linalg.BackendChol,
		ForgetRank:   16,
	})
	if _, ok := cholTuner.Bandit().state.(*linalg.CholState); !ok {
		t.Fatalf("chol tuner state is %T", cholTuner.Bandit().state)
	}
}
