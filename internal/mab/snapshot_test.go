package mab

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"dbabandits/internal/linalg"
)

// TestTunerSnapshotRoundTrip snapshots a live tuner mid-run (through a
// JSON round-trip, as the serve checkpoint does), restores it into a
// freshly constructed tuner, and requires the two to agree byte for
// byte — identical recommendations every remaining round and identical
// final snapshots.
func TestTunerSnapshotRoundTrip(t *testing.T) {
	// "sm" is the ridge backend every snapshot records.
	t.Run("sm", func(t *testing.T) {
		h := newMiniHarness(t, TunerOptions{})
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

		h2 := newMiniHarness(t, TunerOptions{})
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

// TestTunerRestoreRejectsCorruptState pins that a snapshot whose bandit
// reward scale is below 1 or non-finite (Update clamps the live scale
// to at least 1), whose query-store window is below 1 (QoI would
// return nothing ever after) or whose store holds a template without
// an instance (arm generation would get a nil query), is refused, and
// that a refused restore leaves the tuner untouched.
func TestTunerRestoreRejectsCorruptState(t *testing.T) {
	h := newMiniHarness(t, TunerOptions{})
	h.round(t, selectiveWorkload(1))
	h.round(t, selectiveWorkload(2)) // the store holds round 1's templates
	cases := []struct {
		name   string
		mutate func(*TunerSnapshot)
	}{
		{"reward scale 0.5", func(s *TunerSnapshot) { s.Bandit.RewardScale = 0.5 }},
		{"reward scale 0", func(s *TunerSnapshot) { s.Bandit.RewardScale = 0 }},
		{"reward scale NaN", func(s *TunerSnapshot) { s.Bandit.RewardScale = math.NaN() }},
		{"reward scale +Inf", func(s *TunerSnapshot) { s.Bandit.RewardScale = math.Inf(1) }},
		{"window 0", func(s *TunerSnapshot) { s.Store.Window = 0 }},
		{"window -1", func(s *TunerSnapshot) { s.Store.Window = -1 }},
		{"template without instance", func(s *TunerSnapshot) { s.Store.Templates[0].LastInstance = nil }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			snap, err := h.tuner.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			c.mutate(snap)
			fresh := newMiniHarness(t, TunerOptions{}).tuner
			if err := fresh.Restore(snap); err == nil {
				t.Fatal("corrupt snapshot accepted")
			}
			if fresh.round != 0 || fresh.bandit.Round() != 0 || fresh.store.Window != 3 {
				t.Fatalf("refused restore mutated the tuner: round %d, bandit round %d, window %d",
					fresh.round, fresh.bandit.Round(), fresh.store.Window)
			}
		})
	}
	// The unmutated snapshot still restores.
	snap, err := h.tuner.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := newMiniHarness(t, TunerOptions{}).tuner.Restore(snap); err != nil {
		t.Fatal(err)
	}
}

// TestTunerRestoreRejectsRemovedRidgeOptions pins that a tuner
// snapshot written on the removed Cholesky backend, or with a
// rebase-schedule override, is refused with a typed error instead of
// resuming under different arithmetic.
func TestTunerRestoreRejectsRemovedRidgeOptions(t *testing.T) {
	h := newMiniHarness(t, TunerOptions{})
	h.round(t, selectiveWorkload(1))
	for _, mutate := range []func(*linalg.RidgeSnapshot){
		func(s *linalg.RidgeSnapshot) { s.Backend = "chol" },
		func(s *linalg.RidgeSnapshot) { s.RebaseEvery = 64 },
		func(s *linalg.RidgeSnapshot) { s.DriftThreshold = -1 },
	} {
		snap, err := h.tuner.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		mutate(snap.Bandit.Ridge)
		var removed *linalg.RemovedOptionError
		if err := newMiniHarness(t, TunerOptions{}).tuner.Restore(snap); !errors.As(err, &removed) {
			t.Fatalf("restore error %v (%T), want *linalg.RemovedOptionError", err, err)
		}
	}
}
