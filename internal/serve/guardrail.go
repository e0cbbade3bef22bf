package serve

import (
	"fmt"
	"math"

	"dbabandits/internal/index"
	"dbabandits/internal/optimizer"
	"dbabandits/internal/query"
)

// GuardrailOptions configure the serving mode's runtime safety
// supervisor. The guardrail compares each window's realized cost
// (creation + execution seconds) against a what-if baseline under the
// last-known-safe configuration; sustained regressions quarantine the
// tuner: the configuration reverts to the safe one and recommendations
// are overridden for a cooldown period. The zero value enables the
// guardrail with the defaults noted per field.
type GuardrailOptions struct {
	// Disabled turns the supervisor off entirely: no baselines, no
	// violations, no interventions.
	Disabled bool
	// BudgetX is the allowed multiple of the baseline; a window whose
	// realized cost exceeds BudgetX*baseline is a violation. Default
	// 2.0 — generous, because the baseline is a what-if estimate and the
	// realized cost includes index creations the baseline never pays.
	BudgetX float64
	// QuarantineAfter is the violation streak (consecutive violating
	// windows) that triggers quarantine. Default 2: one bad window is
	// noise, two in a row is a regression.
	QuarantineAfter int
	// CooldownWindows is how many subsequent windows run under the
	// safe configuration, recommendations overridden, before the tuner
	// is trusted again. Default 2.
	CooldownWindows int
	// ForgetFactor, when positive, additionally discounts the policy's
	// learned knowledge toward its prior on quarantine (policies
	// implementing policy.Forgetter only), in [0, 1]. Default 0 (off):
	// reverting the configuration is usually enough, and forgetting is
	// the stronger medicine for a policy whose learned state itself
	// went bad.
	ForgetFactor float64
}

// validate rejects what withDefaults cannot repair: a non-finite budget,
// or a forget factor outside [0, 1] (NaN included). A NaN budget would
// survive withDefaults (NaN <= 0 is false) and then switch the
// guardrail off silently, since no realized cost exceeds NaN*baseline.
func (o GuardrailOptions) validate() error {
	if math.IsNaN(o.BudgetX) || math.IsInf(o.BudgetX, 0) {
		return fmt.Errorf("serve: guardrail BudgetX must be finite, got %v", o.BudgetX)
	}
	if !(o.ForgetFactor >= 0 && o.ForgetFactor <= 1) {
		return fmt.Errorf("serve: guardrail ForgetFactor must be in [0, 1], got %v", o.ForgetFactor)
	}
	return nil
}

func (o GuardrailOptions) withDefaults() GuardrailOptions {
	if o.BudgetX <= 0 {
		o.BudgetX = 2.0
	}
	if o.QuarantineAfter <= 0 {
		o.QuarantineAfter = 2
	}
	if o.CooldownWindows <= 0 {
		o.CooldownWindows = 2
	}
	return o
}

// guard is the supervisor's state: the last-known-safe configuration
// (empty — NoIndex — until a window passes cleanly), the current
// violation streak, and the remaining quarantine cooldown.
type guard struct {
	opts        GuardrailOptions
	safe        *index.Config
	streak      int
	cooldown    int
	quarantines int
}

func newGuard(opts GuardrailOptions) *guard {
	return &guard{opts: opts.withDefaults(), safe: index.NewConfig()}
}

// quarantined reports whether the current window must run under the
// safe configuration instead of the policy's recommendation.
func (g *guard) quarantined() bool {
	return !g.opts.Disabled && g.cooldown > 0
}

// baseline prices the window's queries under the last-known-safe
// configuration via the what-if interface — the cost the system would
// have paid had it never trusted the tuner past the last clean window.
// Queries whose what-if pricing errors are excluded from the baseline
// and reported by position in failed, so the caller can exclude their
// realized cost from the guardrail comparison too: judging the full
// realized cost against a partial baseline would deflate the yardstick
// and spuriously trip quarantine on a healthy window.
func (g *guard) baseline(opt *optimizer.Optimizer, queries []*query.Query) (total float64, failed []int) {
	for i, q := range queries {
		c, err := opt.WhatIfCost(q, g.safe)
		if err != nil {
			failed = append(failed, i)
			continue
		}
		total += c
	}
	return total, failed
}

// observe judges one executed window: realized cost against the
// regression budget. It returns whether the window violated the budget
// and whether the violation streak just tripped quarantine. Windows
// executed under quarantine are not re-judged (the tuner was not in
// control); a clean window updates the last-known-safe configuration
// to the one that just proved itself.
func (g *guard) observe(realized, baseline float64, effective *index.Config) (violation, quarantineNow bool) {
	if g.opts.Disabled {
		return false, false
	}
	if g.cooldown > 0 {
		g.cooldown--
		return false, false
	}
	if realized > g.opts.BudgetX*baseline {
		g.streak++
		if g.streak >= g.opts.QuarantineAfter {
			g.streak = 0
			g.cooldown = g.opts.CooldownWindows
			g.quarantines++
			return true, true
		}
		return true, false
	}
	g.streak = 0
	// Rebuild rather than alias: the policy owns the config object it
	// recommended and a later snapshot must not race its reuse.
	g.safe = index.ConfigFromDefs(effective.Defs())
	return false, false
}
