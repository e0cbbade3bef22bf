package env

import (
	"encoding/json"
	"testing"

	"dbabandits/internal/index"
	"dbabandits/internal/policy"
	"dbabandits/internal/query"
	"dbabandits/internal/workload"
)

// badSequencer wraps a real sequencer and injects an unplannable query
// at one round, forcing the driver to error mid-run.
type badSequencer struct {
	workload.Sequencer
	failAt int
}

func (s *badSequencer) Round(r int) []*query.Query {
	if r == s.failAt {
		return []*query.Query{{TemplateID: -1, Tables: []string{"no_such_table"}}}
	}
	return s.Sequencer.Round(r)
}

// TestRunPolicyClosesOnceOnError pins the Close contract: when a round
// errors mid-run, the error propagates AND the policy is closed exactly
// once — no leak, no double close.
func TestRunPolicyClosesOnceOnError(t *testing.T) {
	e := smallEnv(t, Static, 5)
	e.Seq = &badSequencer{Sequencer: e.Seq, failAt: 3}
	p := &scriptedPolicy{env: e, ix: index.New("lineorder", []string{"lo_orderdate"}, nil)}
	if _, err := e.RunPolicy(p); err == nil {
		t.Fatal("mid-run planning failure did not propagate")
	}
	if p.closed != 1 {
		t.Fatalf("Close called %d times, want exactly 1", p.closed)
	}
	// Rounds 1 and 2 ran before the failure; their feedback landed.
	if len(p.rounds) != 3 || len(p.observe) != 2 {
		t.Fatalf("driver state at failure: recommends=%v observes=%d", p.rounds, len(p.observe))
	}
}

// TestRunPolicySpanMatchesFullRun pins the span decomposition: driving
// rounds 1..k as a span and resuming k+1..n through Step over one policy
// produces exactly the RoundResults of the single full run — including
// creation pricing across the seam (the resumed RoundState carries the
// materialised configuration).
func TestRunPolicySpanMatchesFullRun(t *testing.T) {
	const total, cut = 6, 3
	eA := smallEnv(t, Static, total)
	pA, err := eA.Run(TunerKind("advisor"))
	if err != nil {
		t.Fatal(err)
	}

	eB := smallEnv(t, Static, total)
	inner, err := policy.New("advisor", eB, policy.Params{})
	if err != nil {
		t.Fatal(err)
	}
	p := &cfgRecorder{Policy: inner, cfg: index.NewConfig()}
	defer p.Close()
	head, err := eB.RunPolicySpan(p, Span{To: cut})
	if err != nil {
		t.Fatal(err)
	}
	// The recorded configuration crosses the seam — the same hand-off a
	// checkpoint resume performs.
	tail := resumeSpan(t, eB, p, p.cfg, cut+1, total)

	got := append(append([]RoundResult(nil), head.Rounds...), tail...)
	ja, _ := json.Marshal(pA.Rounds)
	jb, _ := json.Marshal(got)
	if string(ja) != string(jb) {
		t.Fatalf("split run diverged from full run:\n%s\nvs\n%s", ja, jb)
	}
}

// resumeSpan drives rounds from..to through Step, the seam serving
// sessions resume through, over a RoundState holding cfg, the
// configuration in effect entering round from, and round from-1's
// workload, replayed from the sequencer (sequencers are pure functions
// of seed and round, so the replay is value-identical).
func resumeSpan(t *testing.T, e *Environment, p policy.Policy, cfg *index.Config, from, to int) []RoundResult {
	t.Helper()
	st := RoundState{Config: cfg, Last: e.Seq.Round(from - 1)}
	var out []RoundResult
	for r := from; r <= to; r++ {
		rr, _, err := e.Step(p, &st, r, e.Seq.Round(r), nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rr)
	}
	return out
}

// cfgRecorder tracks the configuration in effect after each round, the
// way a resuming caller carries the configuration across the seam.
type cfgRecorder struct {
	policy.Policy
	cfg *index.Config
}

func (c *cfgRecorder) Recommend(r int, last []*query.Query) policy.Recommendation {
	rec := c.Policy.Recommend(r, last)
	if rec.Config != nil {
		c.cfg = rec.Config
	}
	return rec
}

// noRounds is a sequencer with no rounds at all.
type noRounds struct{ workload.Sequencer }

func (noRounds) Rounds() int { return 0 }

// TestRunPolicySpanRejectsEmpty pins the span validation: a sequencer
// without rounds leaves the whole-run span empty.
func TestRunPolicySpanRejectsEmpty(t *testing.T) {
	e := smallEnv(t, Static, 3)
	e.Seq = noRounds{e.Seq}
	if _, err := e.RunPolicySpan(&keepEmpty{}, Span{}); err == nil {
		t.Fatal("empty span accepted")
	}
}
