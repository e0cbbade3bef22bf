package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dbabandits/internal/env"
	"dbabandits/internal/linalg"
	"dbabandits/internal/mab"
	"dbabandits/internal/policy"
	"dbabandits/internal/query"
)

// testStream is the shared window stream: template ids per line, with a
// repeated id and a comment exercising the protocol.
const testStream = `
1 2 3 4
2 3 1
# spike
5 5 2
1 4
3 2 1
2 4
`

func testOptions() Options {
	return Options{
		Benchmark:     "ssb",
		ScaleFactor:   10,
		MaxStoredRows: 1500,
		Seed:          7,
		Policy:        "mab",
	}
}

func feedAll(t testing.TB, s *Session, st *Stream, max int) []*WindowReport {
	t.Helper()
	var reps []*WindowReport
	for max <= 0 || len(reps) < max {
		win, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Feed(win)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	return reps
}

func reportJSON(t testing.TB, reps []*WindowReport) string {
	t.Helper()
	data, err := json.Marshal(reps)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestKillRestoreDeterminism pins the tentpole contract: a session
// checkpointed mid-stream, killed, and restored from disk produces
// byte-identical window reports and an identical final configuration to
// a session that was never interrupted.
//
// Two older (version 1) checkpoints of the same session must restore
// the same way: testdata/parent_default.ckpt, written by the build
// before the ridge options were removed at its default flags, and that
// image with the scoring-worker key older builds wrote spliced in (see
// writeLegacyCheckpoint), which the loader ignores. The "sm" subtest
// checks all three. Checkpoints that build wrote with -ridge chol or
// -forget-rank 3 must instead fail Restore with
// *linalg.RemovedOptionError (the "chol" and "forget_rank" subtests).
func TestKillRestoreDeterminism(t *testing.T) {
	t.Run("sm", func(t *testing.T) {
		opts := testOptions()

		golden, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer golden.Close()
		wantReps := feedAll(t, golden, NewStream(strings.NewReader(testStream), golden), 0)

		const cut = 3
		victim, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		headReps := feedAll(t, victim, NewStream(strings.NewReader(testStream), victim), cut)
		dir := t.TempDir()
		path := filepath.Join(dir, "session.ckpt")
		if err := victim.WriteCheckpoint(path); err != nil {
			t.Fatal(err)
		}
		victim.Close() // the kill

		legacyPath := filepath.Join(dir, "legacy.ckpt")
		writeLegacyCheckpoint(t, legacyPath)

		for _, p := range []string{path, legacyPath, filepath.Join("testdata", "parent_default.ckpt")} {
			restored, err := RestoreFile(p)
			if err != nil {
				t.Fatalf("%s: %v", filepath.Base(p), err)
			}
			defer restored.Close()
			if restored.Window() != cut {
				t.Fatalf("%s: restored at window %d, want %d", filepath.Base(p), restored.Window(), cut)
			}
			st := NewStream(strings.NewReader(testStream), restored)
			if err := st.Skip(cut); err != nil {
				t.Fatal(err)
			}
			tailReps := feedAll(t, restored, st, 0)

			got := reportJSON(t, append(append([]*WindowReport{}, headReps...), tailReps...))
			want := reportJSON(t, wantReps)
			if got != want {
				t.Fatalf("%s: kill-and-restore diverged from uninterrupted run:\n%s\nvs\n%s", filepath.Base(p), got, want)
			}
			if g, w := strings.Join(restored.Config(), ","), strings.Join(golden.Config(), ","); g != w {
				t.Fatalf("%s: final configuration diverged: %q vs %q", filepath.Base(p), g, w)
			}
			if restored.Quarantines() != golden.Quarantines() {
				t.Fatalf("%s: quarantine count diverged: %d vs %d", filepath.Base(p), restored.Quarantines(), golden.Quarantines())
			}
		}
	})

	for sub, c := range map[string]struct{ file, option string }{
		"chol":        {"parent_ridge_chol.ckpt", "RidgeBackend"},
		"forget_rank": {"parent_forget_rank.ckpt", "ForgetRank"},
	} {
		t.Run(sub, func(t *testing.T) {
			s, err := RestoreFile(filepath.Join("testdata", c.file))
			if err == nil {
				s.Close()
				t.Fatalf("%s: restored a checkpoint written with a removed ridge option", c.file)
			}
			var removed *linalg.RemovedOptionError
			if !errors.As(err, &removed) || removed.Option != c.option {
				t.Fatalf("%s: err = %v, want *linalg.RemovedOptionError for %s", c.file, err, c.option)
			}
		})
	}
}

// legacyWorkersKey is the top-level key older builds wrote for the
// arm-scoring worker count; Checkpoint no longer has that field.
const legacyWorkersKey = "ScoreWorkers"

// writeLegacyCheckpoint writes to dst the version 1 image
// testdata/parent_default.ckpt with a legacyWorkersKey of 4 added,
// indented as version 1 builds wrote it.
func writeLegacyCheckpoint(t *testing.T, dst string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "parent_default.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields[legacyWorkersKey]; ok {
		t.Fatalf("checkpoint already carries a %s key", legacyWorkersKey)
	}
	fields[legacyWorkersKey] = json.RawMessage("4")
	data, err = json.MarshalIndent(fields, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGuardrailQuarantineRound forces a regression by shrinking the
// budget to near zero and pins the intervention schedule: violations
// from window 1, quarantine exactly at window QuarantineAfter, the
// following CooldownWindows windows executing under the (empty) safe
// configuration.
func TestGuardrailQuarantineRound(t *testing.T) {
	opts := testOptions()
	opts.Guardrail = GuardrailOptions{
		BudgetX:         1e-9, // every window violates
		QuarantineAfter: 2,
		CooldownWindows: 2,
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reps := feedAll(t, s, NewStream(strings.NewReader(testStream), s), 6)
	if len(reps) != 6 {
		t.Fatalf("served %d windows, want 6", len(reps))
	}

	if !reps[0].Violation || reps[0].Intervention != "" {
		t.Fatalf("window 1: violation=%v intervention=%q, want first strike and no intervention", reps[0].Violation, reps[0].Intervention)
	}
	if !reps[1].Violation || reps[1].Intervention != "quarantine" {
		t.Fatalf("window 2: violation=%v intervention=%q, want the quarantine trip", reps[1].Violation, reps[1].Intervention)
	}
	for _, i := range []int{2, 3} {
		if !reps[i].Quarantined || reps[i].Violation || reps[i].NumIndexes != 0 {
			t.Fatalf("window %d: quarantined=%v violation=%v indexes=%d, want cooldown under the empty safe config",
				i+1, reps[i].Quarantined, reps[i].Violation, reps[i].NumIndexes)
		}
	}
	// Cooldown over: the tuner is trusted again, violations resume, and
	// window 6 trips the second quarantine.
	if reps[4].Quarantined || !reps[4].Violation {
		t.Fatalf("window 5: quarantined=%v violation=%v, want the tuner back in control and violating", reps[4].Quarantined, reps[4].Violation)
	}
	if reps[5].Intervention != "quarantine" {
		t.Fatalf("window 6: intervention=%q, want the second quarantine", reps[5].Intervention)
	}
	if s.Quarantines() != 2 {
		t.Fatalf("quarantines = %d, want 2", s.Quarantines())
	}
}

// forgetRecorder records every guardrail Forget call before passing it
// on to the wrapped policy.
type forgetRecorder struct {
	policy.Policy
	gammas []float64
}

func (f *forgetRecorder) Forget(gamma float64) {
	f.gammas = append(f.gammas, gamma)
	f.Policy.(policy.Forgetter).Forget(gamma)
}

// TestGuardrailForgetFactor pins the -guard-forget path: with a positive
// ForgetFactor every quarantine discounts the policy's learned state
// once, by that factor, and the discount reaches the bandit's ridge (its
// Forget rebases, so the quarantine window ends with a fresh inverse);
// with ForgetFactor 0 the guardrail never calls Forget.
func TestGuardrailForgetFactor(t *testing.T) {
	for _, factor := range []float64{0.5, 0} {
		t.Run(fmt.Sprint(factor), func(t *testing.T) {
			opts := testOptions()
			opts.Guardrail = GuardrailOptions{
				BudgetX:         1e-9, // every window violates
				QuarantineAfter: 2,
				CooldownWindows: 2,
				ForgetFactor:    factor,
			}
			s, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			rec := &forgetRecorder{Policy: s.pol}
			s.pol = rec
			st := NewStream(strings.NewReader(testStream), s)
			for w := 1; w <= 6; w++ {
				reps := feedAll(t, s, st, 1)
				raw, err := rec.Policy.(policy.Snapshotter).Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				var state mab.TunerSnapshot
				if err := json.Unmarshal(raw, &state); err != nil {
					t.Fatal(err)
				}
				// The bandit's own shift-scaled forgetting rebases too, so
				// only a quarantine window is conclusive: it observed at
				// least one arm, and only the guardrail's Forget can have
				// rebased after that.
				ridge := state.Bandit.Ridge
				if reps[0].Intervention == "quarantine" && (ridge.SinceRebase == 0) != (factor > 0) {
					t.Fatalf("quarantine window %d: ridge SinceRebase=%d after %d updates",
						w, ridge.SinceRebase, ridge.Updates)
				}
			}
			if s.Quarantines() != 2 {
				t.Fatalf("quarantines = %d, want 2", s.Quarantines())
			}
			want := []float64{factor, factor}
			if factor == 0 {
				want = nil
			}
			if !reflect.DeepEqual(rec.gammas, want) {
				t.Fatalf("Forget calls %v, want %v", rec.gammas, want)
			}
		})
	}
}

// TestPDToolSessionStateBounded pins that a pdtool serving session's
// checkpointed state stops growing once the policy holds the windows a
// retraining can read: after 40 windows it carries 4 of them, and its
// size matches the state after 10 windows to within one window's worth.
func TestPDToolSessionStateBounded(t *testing.T) {
	opts := testOptions()
	opts.Policy = "pdtool"
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var lines strings.Builder
	for w := 0; w < 40; w++ {
		fmt.Fprintf(&lines, "%d %d %d\n", 1+w%5, 1+(w+2)%5, 1+(w+4)%5)
	}
	st := NewStream(strings.NewReader(lines.String()), s)
	stateAt := func() []byte {
		ck, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		return ck.PolicyState
	}
	feedAll(t, s, st, 10)
	at10 := len(stateAt())
	feedAll(t, s, st, 30)
	state := stateAt()
	var snap struct{ Windows [][]*query.Query }
	if err := json.Unmarshal(state, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Windows) != 4 {
		t.Fatalf("state after 40 windows holds %d windows, want 4", len(snap.Windows))
	}
	if len(state) > at10*5/4 {
		t.Fatalf("state grew from %d bytes at window 10 to %d at window 40", at10, len(state))
	}
}

// TestGuardrailDisabled pins that -no-guard means no judgements at all.
func TestGuardrailDisabled(t *testing.T) {
	opts := testOptions()
	opts.Guardrail = GuardrailOptions{Disabled: true, BudgetX: 1e-9}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, rep := range feedAll(t, s, NewStream(strings.NewReader(testStream), s), 4) {
		if rep.Violation || rep.Quarantined || rep.Intervention != "" {
			t.Fatalf("window %d: guardrail acted while disabled: %+v", rep.Window, rep)
		}
	}
	if s.Quarantines() != 0 {
		t.Fatalf("quarantines = %d, want 0", s.Quarantines())
	}
}

// TestStreamSkipMatchesRead pins the stream's restore contract: window
// n's instantiated queries do not depend on whether windows 1..n-1 were
// read or skipped.
func TestStreamSkipMatchesRead(t *testing.T) {
	s, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	read := NewStream(strings.NewReader(testStream), s)
	var third []*query.Query
	for i := 0; i < 3; i++ {
		if third, err = read.Next(); err != nil {
			t.Fatal(err)
		}
	}
	skipped := NewStream(strings.NewReader(testStream), s)
	if err := skipped.Skip(2); err != nil {
		t.Fatal(err)
	}
	got, err := skipped.Next()
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(third)
	jb, _ := json.Marshal(got)
	if string(ja) != string(jb) {
		t.Fatalf("skip changed window 3's instantiation:\n%s\nvs\n%s", ja, jb)
	}
	if len(got) != 3 {
		t.Fatalf("window 3 has %d queries, want 3", len(got))
	}
}

// TestStreamErrors pins the protocol's failure modes.
func TestStreamErrors(t *testing.T) {
	s, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := NewStream(strings.NewReader("1 bogus\n"), s).Next(); err == nil {
		t.Fatal("non-integer template id accepted")
	}
	if _, err := NewStream(strings.NewReader("999\n"), s).Next(); err == nil {
		t.Fatal("unknown template id accepted")
	}
	if err := NewStream(strings.NewReader("1\n"), s).Skip(2); err == nil {
		t.Fatal("skip past stream end accepted")
	}
}

// TestServeMatchesBatch pins that serving and batch runs share one
// round: for every registered policy, a guardrail-disabled session fed
// the static sequencer's rounds reports, window by window, the same
// recommendation, creation and execution seconds and index count as the
// batch driver's RoundResults, bit for bit.
func TestServeMatchesBatch(t *testing.T) {
	const seed, rounds = 5, 8
	for _, name := range policy.Names() {
		t.Run(name, func(t *testing.T) {
			e, err := env.New(env.Options{
				Benchmark:     "ssb",
				Regime:        env.Static,
				MaxStoredRows: 1500,
				Seed:          seed,
				Params:        policy.Params{DDQNSeed: seed},
			})
			if err != nil {
				t.Fatal(err)
			}
			p, err := e.NewPolicy(env.TunerKind(name))
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.RunPolicySpan(p, env.Span{To: rounds})
			p.Close()
			if err != nil {
				t.Fatal(err)
			}

			s, err := New(Options{
				Benchmark:     "ssb",
				MaxStoredRows: 1500,
				Seed:          seed,
				Policy:        name,
				Guardrail:     GuardrailOptions{Disabled: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for r := 1; r <= rounds; r++ {
				rep, err := s.Feed(e.Seq.Round(r))
				if err != nil {
					t.Fatal(err)
				}
				want := res.Rounds[r-1]
				got := env.RoundResult{Round: rep.Window, RecommendSec: rep.RecommendSec, CreateSec: rep.CreateSec, ExecSec: rep.ExecSec, NumIndexes: rep.NumIndexes}
				if got != want {
					t.Fatalf("window %d: serve %+v, batch %+v", r, got, want)
				}
			}
		})
	}
}

// TestSessionValidation pins constructor and Feed validation.
func TestSessionValidation(t *testing.T) {
	bad := testOptions()
	bad.Policy = "no-such-policy"
	if _, err := New(bad); err == nil {
		t.Fatal("unknown policy accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		set  func(*Options)
	}{
		{"ScaleFactor NaN", func(o *Options) { o.ScaleFactor = nan }},
		{"ScaleFactor +Inf", func(o *Options) { o.ScaleFactor = inf }},
		{"MemoryBudgetX NaN", func(o *Options) { o.MemoryBudgetX = nan }},
		{"MemoryBudgetX -Inf", func(o *Options) { o.MemoryBudgetX = -inf }},
		{"guard BudgetX NaN", func(o *Options) { o.Guardrail.BudgetX = nan }},
		{"guard BudgetX +Inf", func(o *Options) { o.Guardrail.BudgetX = inf }},
		{"guard ForgetFactor NaN", func(o *Options) { o.Guardrail.ForgetFactor = nan }},
		{"guard ForgetFactor -0.1", func(o *Options) { o.Guardrail.ForgetFactor = -0.1 }},
		{"guard ForgetFactor 1.5", func(o *Options) { o.Guardrail.ForgetFactor = 1.5 }},
	} {
		o := testOptions()
		c.set(&o)
		if s, err := New(o); err == nil {
			s.Close()
			t.Errorf("%s accepted", c.name)
		}
	}
	edge := testOptions()
	edge.Guardrail.ForgetFactor = 1
	es, err := New(edge)
	if err != nil {
		t.Fatalf("ForgetFactor 1 refused: %v", err)
	}
	// Restore goes through New, so a checkpoint carrying a bad guardrail
	// is refused too.
	ck, err := es.Checkpoint()
	es.Close()
	if err != nil {
		t.Fatal(err)
	}
	ck.Guardrail.ForgetFactor = 1.5
	if r, err := Restore(ck); err == nil {
		r.Close()
		t.Error("checkpoint with guardrail ForgetFactor 1.5 restored")
	}

	s, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Feed(nil); err == nil {
		t.Fatal("empty window accepted")
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Feed([]*query.Query{{}}); err == nil {
		t.Fatal("Feed on closed session accepted")
	}
}

// TestCheckpointVersionGate pins that a future-format checkpoint is
// refused rather than guessed at.
func TestCheckpointVersionGate(t *testing.T) {
	s, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	ck.Version = CheckpointVersion + 1
	var ce *CheckpointError
	if _, err := Restore(ck); !errors.As(err, &ce) || ce.Kind != KindVersion {
		t.Fatalf("future checkpoint version: err = %v, want a version *CheckpointError", err)
	}
}
