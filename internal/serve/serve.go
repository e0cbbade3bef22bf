// Package serve implements the online serving mode: a long-lived tuner
// session fed statement windows as they arrive, rather than a
// preplanned experiment regime. Each window is one env.Step, the round
// the batch driver runs, so serving and batch runs share one statement
// of Algorithm 2. What serve adds around that step is what batch runs
// lack: a runtime safety guardrail that supervises the tuner,
// quarantining it back to the last-known-safe configuration when
// realized cost regresses past a budget, and a checkpoint file from
// which a session resumes byte-identically (policy.Snapshotter).
package serve

import (
	"bytes"
	"fmt"

	"dbabandits/internal/env"
	"dbabandits/internal/index"
	"dbabandits/internal/policy"
	"dbabandits/internal/query"
)

// Options configure a serving session. The zero value serves the SSB
// benchmark with the MAB tuner and the guardrail at its defaults.
type Options struct {
	// Benchmark names the schema/data the session serves ("ssb"
	// default; any workload.ByName benchmark).
	Benchmark string
	// ScaleFactor and MaxStoredRows size the generated data exactly as
	// env.Options do (defaults 10 and 5000).
	ScaleFactor   float64
	MaxStoredRows int
	// Seed drives data generation and every seeded policy.
	Seed int64
	// MemoryBudgetX is the index budget as a multiple of the data size
	// (default 1.0).
	MemoryBudgetX float64
	// Policy names the tuning strategy from the policy registry
	// (default "mab").
	Policy string
	// Guardrail configures the safety supervisor.
	Guardrail GuardrailOptions
}

func (o Options) withDefaults() Options {
	if o.Benchmark == "" {
		o.Benchmark = "ssb"
	}
	if o.Policy == "" {
		o.Policy = "mab"
	}
	return o
}

// WindowReport is the per-window account a session returns from Feed:
// the cost breakdown, the effective configuration, and what — if
// anything — the guardrail did.
type WindowReport struct {
	// Window is the 1-based serving window this report covers.
	Window     int
	NumQueries int
	// RecommendSec, CreateSec and ExecSec break down the window's
	// realized cost exactly as the batch driver's RoundResult does.
	RecommendSec float64
	CreateSec    float64
	ExecSec      float64
	// BaselineSec is the what-if cost of the window under the
	// last-known-safe configuration — the guardrail's yardstick.
	BaselineSec float64
	NumIndexes  int
	// Indexes lists the effective configuration's index identifiers.
	Indexes []string `json:",omitempty"`
	// Quarantined marks a window that executed under the guardrail's
	// safe-configuration override rather than the policy's choice.
	Quarantined bool `json:",omitempty"`
	// Violation marks a window whose realized cost exceeded the
	// regression budget.
	Violation bool `json:",omitempty"`
	// Intervention is "quarantine" on the window whose violation streak
	// tripped the guardrail, empty otherwise.
	Intervention string `json:",omitempty"`
}

// Session is a long-lived serving-mode tuner: construct with New (or
// resume with Restore), Feed it statement windows, Checkpoint it at
// window boundaries, and Close it exactly once when done. A session is
// not safe for concurrent use.
type Session struct {
	opts Options
	env  *env.Environment
	pol  policy.Policy

	window int
	round  env.RoundState // the configuration, last window and Step's scratch
	guard  *guard
	closed bool

	ckptBuf bytes.Buffer // WriteCheckpoint's image, reused across windows
}

// New prepares a serving session: benchmark data, environment, policy
// and guardrail. The caller owns the session and must Close it.
func New(opts Options) (*Session, error) {
	if err := opts.Guardrail.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	e, err := env.New(env.Options{
		Benchmark:     opts.Benchmark,
		Regime:        env.Static,
		ScaleFactor:   opts.ScaleFactor,
		MaxStoredRows: opts.MaxStoredRows,
		Seed:          opts.Seed,
		MemoryBudgetX: opts.MemoryBudgetX,
	})
	if err != nil {
		return nil, err
	}
	p, err := policy.New(opts.Policy, e, policy.Params{
		DDQNSeed:   opts.Seed,
		RandomSeed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Session{
		opts:  opts,
		env:   e,
		pol:   p,
		round: env.RoundState{Config: index.NewConfig()},
		guard: newGuard(opts.Guardrail),
	}, nil
}

// Window returns the number of windows served so far.
func (s *Session) Window() int { return s.window }

// Config returns the identifiers of the materialised configuration.
func (s *Session) Config() []string { return s.round.Config.IDs() }

// Feed serves one statement window: the guardrail prices the window
// under its last-known-safe configuration, env.Step runs the window as
// a round of the batch protocol (the policy recommends given only the
// previous window; during a quarantine the safe configuration is pinned
// in its place), and the guardrail judges the realized cost against its baseline,
// reverting the configuration on a quarantine.
func (s *Session) Feed(queries []*query.Query) (*WindowReport, error) {
	if s.closed {
		return nil, fmt.Errorf("serve: session is closed")
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("serve: empty window")
	}
	s.window++
	// The baseline reads only the window, the safe configuration and
	// the optimiser, whose plans are pure functions of (query,
	// configuration), so pricing it ahead of the step changes no number.
	baseline, failed := s.guard.baseline(s.env.WhatIf(), queries)
	var pin *index.Config
	if s.guard.quarantined() {
		// Cooldown: the tuner still observes the window (its learning
		// continues) but its configuration choice is overridden.
		pin = s.guard.safe.Clone()
	}
	rr, stats, err := s.env.Step(s.pol, &s.round, s.window, queries, pin)
	if err != nil {
		return nil, err
	}
	// The report describes the configuration the window executed under;
	// a quarantine later this window reverts state, not history.
	rep := &WindowReport{
		Window:       s.window,
		NumQueries:   len(queries),
		RecommendSec: rr.RecommendSec,
		CreateSec:    rr.CreateSec,
		ExecSec:      rr.ExecSec,
		BaselineSec:  baseline,
		NumIndexes:   rr.NumIndexes,
		Indexes:      s.round.Config.IDs(),
		Quarantined:  pin != nil,
	}

	// Judge like against like: a query the baseline could not price is
	// excluded from the realized side too, so an unpriceable query can
	// never deflate the yardstick and spuriously trip quarantine.
	realized := rr.CreateSec + rr.ExecSec
	for _, i := range failed {
		realized -= stats[i].TotalSec
	}
	violation, quarantineNow := s.guard.observe(realized, baseline, s.round.Config)
	rep.Violation = violation
	if quarantineNow {
		// Revert immediately: dropping indexes is free, so the safe
		// configuration takes effect for the very next window.
		s.round.Config = s.guard.safe.Clone()
		rep.Intervention = "quarantine"
		if f, ok := s.pol.(policy.Forgetter); ok && s.guard.opts.ForgetFactor > 0 {
			f.Forget(s.guard.opts.ForgetFactor)
		}
	}
	return rep, nil
}

// Quarantines returns how many times the guardrail has intervened.
func (s *Session) Quarantines() int { return s.guard.quarantines }

// Close releases the session's policy. It is idempotent: the policy's
// Close runs exactly once no matter how many times — or on which error
// path — the session is closed.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.pol.Close()
}
