// Package serve implements the online serving mode: a long-lived tuner
// session fed statement windows as they arrive, rather than a
// preplanned experiment regime. Two capability seams distinguish it
// from the batch driver in internal/env: sessions checkpoint to disk
// and resume byte-identically (policy.Snapshotter), and a runtime
// safety guardrail supervises the tuner, quarantining it back to the
// last-known-safe configuration when realized cost regresses past a
// budget.
package serve

import (
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

	window     int
	cfg        *index.Config
	lastWindow []*query.Query
	guard      *guard
	closed     bool
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
		cfg:   index.NewConfig(),
		guard: newGuard(opts.Guardrail),
	}, nil
}

// Options returns the session's effective (defaulted) options.
func (s *Session) Options() Options { return s.opts }

// Window returns the number of windows served so far.
func (s *Session) Window() int { return s.window }

// Config returns the identifiers of the materialised configuration.
func (s *Session) Config() []string { return s.cfg.IDs() }

// Feed serves one statement window: the policy recommends a
// configuration given only the previous window, the guardrail may
// override it, index creations are priced against the materialised
// state, the window executes, the guardrail judges the realized cost
// against its baseline, and the true execution feedback reaches the
// policy — the same protocol the batch driver runs, minus the
// preplanned sequencer.
func (s *Session) Feed(queries []*query.Query) (*WindowReport, error) {
	if s.closed {
		return nil, fmt.Errorf("serve: session is closed")
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("serve: empty window")
	}
	s.window++
	rep := &WindowReport{Window: s.window, NumQueries: len(queries)}

	rec := s.pol.Recommend(s.window, s.lastWindow)
	next := rec.Config
	if next == nil {
		next = s.cfg
	}
	rep.RecommendSec = rec.RecommendSec
	if s.guard.quarantined() {
		// Cooldown: the tuner still observes the window (its learning
		// continues) but its configuration choice is overridden.
		next = s.guard.safe.Clone()
		rep.Quarantined = true
	}

	perCreate, createSec := s.env.CreationCost(next.Diff(s.cfg))
	s.cfg = next
	rep.CreateSec = createSec
	// The report describes the configuration the window executed under;
	// a quarantine later this window reverts state, not history.
	rep.NumIndexes = s.cfg.Len()
	rep.Indexes = s.cfg.IDs()

	execSec, stats, err := s.env.ExecuteWorkload(queries, s.cfg)
	if err != nil {
		return nil, err
	}
	rep.ExecSec = execSec
	baseline, failed := s.guard.baseline(s.env.WhatIf(), queries)
	rep.BaselineSec = baseline

	s.pol.Observe(stats, perCreate)
	s.lastWindow = queries

	// Judge like against like: a query the baseline could not price is
	// excluded from the realized side too, so an unpriceable query can
	// never deflate the yardstick and spuriously trip quarantine.
	realized := createSec + execSec
	for _, i := range failed {
		realized -= stats[i].TotalSec
	}
	violation, quarantineNow := s.guard.observe(realized, rep.BaselineSec, s.cfg)
	rep.Violation = violation
	if quarantineNow {
		// Revert immediately: dropping indexes is free, so the safe
		// configuration takes effect for the very next window.
		s.cfg = s.guard.safe.Clone()
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
