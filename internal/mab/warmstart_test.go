package mab

import (
	"testing"

	"dbabandits/internal/query"
)

func TestWarmStartSeedsKnowledge(t *testing.T) {
	h := newMiniHarness(t, TunerOptions{})
	training := selectiveWorkload(1)
	// A warm start that claims every arm gains 10s/round.
	h.tuner.WarmStart(training, func(a *Arm) float64 { return 10 }, 3)
	if h.tuner.Bandit().state.Updates() == 0 {
		t.Fatal("warm start produced no observations")
	}
	if sqNorm(h.tuner.Bandit().state.Theta()) == 0 {
		t.Fatal("warm start did not move theta")
	}
}

func TestWarmStartEmptyInputsNoop(t *testing.T) {
	h := newMiniHarness(t, TunerOptions{})
	h.tuner.WarmStart(nil, func(a *Arm) float64 { return 1 }, 3)
	h.tuner.WarmStart(selectiveWorkload(1), func(a *Arm) float64 { return 1 }, 0)
	if h.tuner.Bandit().state.Updates() != 0 {
		t.Fatal("no-op warm start updated the bandit")
	}
}

func TestWarmStartBiasCanBeOverridden(t *testing.T) {
	// Feed a wrongly *ordered* but optimistic warm start (bigger indexes
	// look better, which is backwards), then run real rounds: observed
	// rewards must still converge the tuner to a useful configuration.
	// (A uniformly pessimistic prior is sticky by design — no arm is ever
	// tried again — which is the caveat the paper cites Zhang et al.'s
	// warm-start work for; the harness's what-if warm start only feeds
	// non-negative estimated gains for that reason.)
	h := newMiniHarness(t, TunerOptions{})
	h.tuner.WarmStart(selectiveWorkload(1), func(a *Arm) float64 {
		return float64(a.SizeBytes) / 1e6 // backwards: size as merit
	}, 1)
	for round := 1; round <= 15; round++ {
		h.round(t, selectiveWorkload(round))
	}
	base := h.noIndexSec(t, selectiveWorkload(15))
	if h.execSec >= base {
		t.Fatalf("tuner never recovered from biased warm start: %v vs %v", h.execSec, base)
	}
}

func TestOraclePostPassRemovesRedundantPrefixes(t *testing.T) {
	// A narrow arm with a high score picked before its wider superset must
	// be dropped by the post-pass.
	narrow := mkArm("t", []string{"a"}, 10, 1)
	wide := mkArm("t", []string{"a", "b"}, 20, 2)
	got := SelectSuperArm([]*Arm{narrow, wide}, []float64{9, 5}, 100)
	for _, a := range got {
		if a.ID() == narrow.ID() {
			t.Fatalf("redundant prefix survived: %v", ids(got))
		}
	}
	if len(got) != 1 || got[0].ID() != wide.ID() {
		t.Fatalf("selected %v", ids(got))
	}
}

func TestThrottleLimitsNewCreations(t *testing.T) {
	var arms []*Arm
	var scores []float64
	cols := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i, c := range cols {
		arms = append(arms, mkArm("t", []string{c}, 10, i))
		scores = append(scores, float64(10-i))
	}
	existing := map[string]bool{arms[0].ID(): true}
	got := selectSuperArmScratch(arms, scores, 1000, existing, 2, &oracleScratch{})
	newCount := 0
	for _, a := range got {
		if !existing[a.ID()] {
			newCount++
		}
	}
	if newCount > 2 {
		t.Fatalf("throttle exceeded: %d new arms", newCount)
	}
	// The already-materialised arm must not count against the throttle.
	found := false
	for _, a := range got {
		if a.ID() == arms[0].ID() {
			found = true
		}
	}
	if !found {
		t.Fatal("materialised arm dropped by throttle")
	}
}

func TestThrottleDisabled(t *testing.T) {
	var arms []*Arm
	var scores []float64
	cols := []string{"a", "b", "c", "d", "e"}
	for i, c := range cols {
		arms = append(arms, mkArm("t", []string{c}, 10, i))
		scores = append(scores, 5)
	}
	got := SelectSuperArm(arms, scores, 1000)
	if len(got) != len(arms) {
		t.Fatalf("unthrottled selection dropped arms: %d of %d", len(got), len(arms))
	}
}

func TestTunerRewardSignWiring(t *testing.T) {
	// End-to-end reward check: run until a covering index is used, then
	// verify theta predicts a positive score for its materialised context
	// (the learned knowledge is what keeps it selected).
	h := newMiniHarness(t, TunerOptions{})
	for round := 1; round <= 10; round++ {
		h.round(t, selectiveWorkload(round))
	}
	cfg := h.tuner.Config()
	if cfg.Len() == 0 {
		t.Skip("no stable configuration on this seed")
	}
	var usedQuery []*query.Query = selectiveWorkload(11)
	_ = usedQuery
	// Scores of the current configuration's arms must be positive at
	// recommendation time (otherwise the oracle would drop them).
	rec := h.tuner.Recommend(h.lastWorkload)
	for _, id := range cfg.IDs() {
		if rec.Config.Has(id) {
			return // at least one retained arm: wiring is consistent
		}
	}
	t.Fatal("no previously selected arm retained despite positive gains")
}
