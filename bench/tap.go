package main

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"dbabandits/internal/engine"
	"dbabandits/internal/optimizer"
	"dbabandits/internal/policy"
	"dbabandits/internal/query"
)

// tap passes every call through to the policy it wraps, including the
// optional capabilities drivers find by type assertion (UpdateAware,
// Snapshotter, Forgetter), so wrapping changes no result. It lets the
// benchmark see the calls a driver makes from inside: it stamps each
// Recommend entry, which is where a batch round starts, and with a
// tracer it times the calls as spans.
type tap struct {
	inner   policy.Policy
	tr      *tracer              // nil when untraced
	opt     *optimizer.Optimizer // the environment's optimiser, when built by registerTap
	starts  []stamp              // Recommend entries
	queries int                  // analytical queries whose stats reached Observe
}

// stamp is one instant on both clocks a round is timed by.
type stamp struct {
	wall time.Time
	cpu  time.Duration // threadCPU
}

func now() stamp { return stamp{wall: time.Now(), cpu: threadCPU()} }

func (t *tap) Name() string { return t.inner.Name() }

func (t *tap) Recommend(round int, last []*query.Query) policy.Recommendation {
	t.starts = append(t.starts, now())
	i := t.tr.begin(spRecommend, countAllocs)
	rec := t.inner.Recommend(round, last)
	t.tr.end(i, countAllocs)
	return rec
}

func (t *tap) Observe(stats []*engine.ExecStats, creationSec map[string]float64) {
	t.queries += len(stats)
	i := t.tr.begin(spObserve, noAllocs)
	t.inner.Observe(stats, creationSec)
	t.tr.end(i, noAllocs)
}

func (t *tap) ObserveUpdates(updates []query.Update, perIndexMaintSec map[string]float64) {
	if ua, ok := t.inner.(policy.UpdateAware); ok {
		i := t.tr.begin(spObserve, noAllocs)
		ua.ObserveUpdates(updates, perIndexMaintSec)
		t.tr.end(i, noAllocs)
	}
}

func (t *tap) Snapshot() (json.RawMessage, error) {
	s, ok := t.inner.(policy.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("policy %q cannot snapshot", t.inner.Name())
	}
	i := t.tr.begin(spSnapshot, noAllocs)
	raw, err := s.Snapshot()
	t.tr.end(i, noAllocs)
	return raw, err
}

func (t *tap) Restore(raw json.RawMessage) error {
	s, ok := t.inner.(policy.Snapshotter)
	if !ok {
		return fmt.Errorf("policy %q cannot restore", t.inner.Name())
	}
	i := t.tr.begin(spRestore, noAllocs)
	err := s.Restore(raw)
	t.tr.end(i, noAllocs)
	return err
}

func (t *tap) Forget(gamma float64) {
	if f, ok := t.inner.(policy.Forgetter); ok {
		f.Forget(gamma)
	}
}

func (t *tap) Close() { t.inner.Close() }

var (
	_ policy.UpdateAware = (*tap)(nil)
	_ policy.Snapshotter = (*tap)(nil)
	_ policy.Forgetter   = (*tap)(nil)
)

// tapSeq numbers the registry names registerTap hands out.
var tapSeq atomic.Int64

// registerTap registers, under a fresh benchmark-only name, a policy
// that builds the named policy and wraps it in a tap reporting to tr.
// Drivers that construct their policy by name (serve.New, and
// serve.Restore from a checkpoint) then build tapped policies; each one
// is passed to built.
func registerTap(inner string, tr *tracer, built func(*tap)) string {
	name := fmt.Sprintf("bench-tap-%d-%s", tapSeq.Add(1), inner)
	policy.Register(name, func(e policy.Env, p policy.Params) (policy.Policy, error) {
		pol, err := policy.New(inner, e, p)
		if err != nil {
			return nil, err
		}
		t := &tap{inner: pol, tr: tr, opt: e.WhatIf()}
		built(t)
		return t, nil
	})
	return name
}
