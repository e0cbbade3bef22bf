package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"dbabandits/internal/engine"
	"dbabandits/internal/env"
	"dbabandits/internal/index"
	"dbabandits/internal/optimizer"
	"dbabandits/internal/policy"
	"dbabandits/internal/query"
)

// batchEpisode is one untraced pass over a batch workload's rounds.
type batchEpisode struct {
	timing
	results []env.RoundResult
}

func buildBatch(w workload, seed int64) (*env.Environment, policy.Policy, error) {
	e, err := env.New(w.envOptions(seed))
	if err != nil {
		return nil, nil, err
	}
	p, err := e.NewPolicy(env.TunerKind(w.policy))
	if err != nil {
		return nil, nil, err
	}
	return e, p, nil
}

// runBatchEpisode drives every round through RunPolicySpan, the batch
// entry point. A round runs from its Recommend call to the next round's,
// which the tap stamps; the last round ends when RunPolicySpan returns.
func runBatchEpisode(e *env.Environment, p policy.Policy) (batchEpisode, error) {
	t := &tap{inner: p, starts: make([]stamp, 0, e.Seq.Rounds())}
	runtime.GC()
	h0 := readHeap()
	cpu0 := cpuTime()
	s0 := now()
	res, err := e.RunPolicySpan(t, env.Span{})
	s1 := now()
	ep := batchEpisode{timing: timing{wall: s1.wall.Sub(s0.wall), cpu: cpuTime() - cpu0, queries: t.queries}}
	ep.heap = readHeap().minus(h0)
	for i, s := range t.starts {
		end := s1
		if i+1 < len(t.starts) {
			end = t.starts[i+1]
		}
		ep.addRound(s, end)
	}
	if err != nil {
		// The last round stamped is the one that failed.
		ep.dropLastRound()
		return ep, err
	}
	ep.results = res.Rounds
	return ep, nil
}

// runBatch measures a batch workload end to end: set-up, whole episodes
// for the time budget, peak memory, and the output checks.
func runBatch(w workload, o runOpts) (*result, error) {
	res := &result{workload: w.name}
	var (
		e      *env.Environment
		p      policy.Policy
		setups []float64
		eps    []timing
		first  batchEpisode
	)
	build := func() error {
		if p != nil {
			p.Close()
		}
		var err error
		e, p, err = buildBatch(w, o.seed)
		return err
	}
	loopStart := time.Now()
	for {
		// Each episode runs on the last of a batch of timed builds, so
		// set-up is sampled across the whole run, as the rounds are.
		s, err := timeBuilds(o.setups, build)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s...)
		ep, err := runBatchEpisode(e, p)
		eps = append(eps, ep.timing)
		res.attempted += len(ep.roundMs)
		if err != nil {
			res.failed++
			res.attempted++
			res.failCheck("round failed: %v", err)
			break
		}
		if len(eps) == 1 {
			first = ep
		} else if !sameJSON(first.results, ep.results) {
			res.failCheck("episode %d results differ from episode 1", len(eps))
		}
		if time.Since(loopStart)+ep.wall > o.budget() {
			break
		}
	}
	p.Close()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if res.failed > 0 {
		return res, nil
	}

	checkUncachedPrefix(res, w, o, first)
	var sim float64
	for _, r := range first.results {
		sim += r.TotalSec()
	}
	addEndToEnd(res, w, setups, eps, rss, sim)
	return res, nil
}

// traceBatch is the traced pass over a batch workload: one untraced
// episode through RunPolicySpan, then one episode through the mirror,
// which makes RunPolicySpan's calls itself and times each as a span.
func traceBatch(w workload, o runOpts) (*result, *tracer, error) {
	res := &result{workload: w.name}
	e, p, err := buildBatch(w, o.seed)
	if err != nil {
		return nil, nil, err
	}
	plain, err := runBatchEpisode(e, p)
	p.Close()
	res.attempted += len(plain.roundMs)
	if err != nil {
		res.failed++
		res.attempted++
		res.failCheck("round failed: %v", err)
		return res, nil, nil
	}

	if e, p, err = buildBatch(w, o.seed); err != nil {
		return nil, nil, err
	}
	defer p.Close()
	// Two spans per query (plan, execute) and a handful per round.
	tr := newTracer(2*plain.queries + 10*w.rounds)
	stats0 := e.Opt.CacheStats()
	runtime.GC()
	m, err := mirrorEpisode(e, p, tr)
	res.attempted += w.rounds
	if err != nil {
		res.failed++
		res.failCheck("traced round failed: %v", err)
		return res, tr, nil
	}
	cache := cacheDelta(stats0, e.Opt.CacheStats())
	if !sameJSON(plain.results, m.results) {
		res.failCheck("traced mirror results differ from RunPolicySpan's")
	}
	checkUncachedPrefix(res, w, o, plain)

	// Checkpoint and recovery, timed once each outside the rounds.
	tr.setID(0)
	i := tr.begin(spSnapshot, noAllocs)
	snap, err := p.(policy.Snapshotter).Snapshot()
	tr.end(i, noAllocs)
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: %w", err)
	}
	_, fresh, err := buildBatch(w, o.seed)
	if err != nil {
		return nil, nil, err
	}
	i = tr.begin(spRestore, noAllocs)
	err = fresh.(policy.Snapshotter).Restore(snap)
	tr.end(i, noAllocs)
	fresh.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("restore: %w", err)
	}
	if err := validate(tr.spans); err != nil {
		res.failCheck("span tree: %v", err)
	}
	addPerLayer(res, w, perLayer{
		spans: aggregate(tr.spans), rounds: w.rounds, root: spRound, heap: plain.heap,
		plainCPU: plain.roundCPUMs, tracedCPU: m.roundCPUMs,
		cache: cache, queries: m.queries, created: m.created, dropped: m.dropped, updates: m.updates,
	})
	return res, tr, nil
}

// mirrorOut is what the mirror returns besides its spans.
type mirrorOut struct {
	results                            []env.RoundResult
	roundCPUMs                         []float64 // CPU ms of the driving thread per round
	queries, created, dropped, updates int
}

// mirrorEpisode runs every round of the environment the way
// RunPolicySpan does, from the same public calls, timing each: Recommend,
// Config.DiffBoth and CreationCost, Seq.Round, ChoosePlan and
// engine.Execute per query, UpdatesAt and MaintenanceCost,
// ObserveUpdates and Observe. Its results must equal RunPolicySpan's
// byte for byte; traceBatch checks that they do.
func mirrorEpisode(e *env.Environment, p policy.Policy, tr *tracer) (mirrorOut, error) {
	var out mirrorOut
	ua, _ := p.(policy.UpdateAware)
	hasUpdates := e.HasUpdates()
	cfg := index.NewConfig()
	var last []*query.Query
	for r := 1; r <= e.Seq.Rounds(); r++ {
		tr.setID(r)
		cpu0 := threadCPU()
		root := tr.begin(spRound, noAllocs)

		i := tr.begin(spRecommend, countAllocs)
		rec := p.Recommend(r, last)
		tr.end(i, countAllocs)
		next := rec.Config
		if next == nil {
			next = cfg
		}

		i = tr.begin(spCreate, noAllocs)
		create, drop := next.DiffBoth(cfg)
		perCreate, createSec := e.CreationCost(create)
		tr.end(i, noAllocs)
		out.created += len(create)
		out.dropped += len(drop)
		cfg = next

		i = tr.begin(spInstantiate, noAllocs)
		wl := e.Seq.Round(r)
		tr.end(i, noAllocs)

		stats := make([]*engine.ExecStats, 0, len(wl))
		var execSec float64
		for _, q := range wl {
			i = tr.begin(spPlan, countAllocs)
			plan, err := e.Opt.ChoosePlan(q, cfg)
			tr.end(i, countAllocs)
			if err != nil {
				return out, fmt.Errorf("round %d: planning template %d: %w", r, q.TemplateID, err)
			}
			i = tr.begin(spExecute, countAllocs)
			st, err := engine.Execute(e.DB, plan, e.CM)
			tr.end(i, countAllocs)
			if err != nil {
				return out, fmt.Errorf("round %d: executing template %d: %w", r, q.TemplateID, err)
			}
			execSec += st.TotalSec
			stats = append(stats, st)
		}
		out.queries += len(wl)

		var updates []query.Update
		var maintSec float64
		if hasUpdates {
			i = tr.begin(spInstantiate, noAllocs)
			updates = e.UpdatesAt(r)
			tr.end(i, noAllocs)
			i = tr.begin(spMaintain, noAllocs)
			var perMaint map[string]float64
			perMaint, maintSec = e.MaintenanceCost(updates, cfg)
			tr.end(i, noAllocs)
			out.updates += len(updates)
			if ua != nil {
				i = tr.begin(spObserve, noAllocs)
				ua.ObserveUpdates(updates, perMaint)
				tr.end(i, noAllocs)
			}
		}
		i = tr.begin(spObserve, noAllocs)
		p.Observe(stats, perCreate)
		tr.end(i, noAllocs)
		last = wl

		out.results = append(out.results, env.RoundResult{
			Round:          r,
			RecommendSec:   rec.RecommendSec,
			CreateSec:      createSec,
			ExecSec:        execSec,
			MaintenanceSec: maintSec,
			NumUpdates:     len(updates),
			NumIndexes:     cfg.Len(),
		})
		tr.end(root, noAllocs)
		out.roundCPUMs = append(out.roundCPUMs, ms(threadCPU()-cpu0))
	}
	return out, nil
}

// checkUncachedPrefix re-runs the first rounds of the workload with the
// optimiser's plan cache off and checks that the results equal the
// cached run's. The prefix is the rounds the cached run finished in its
// first prefixBudget, so the check stays short at any workload size.
func checkUncachedPrefix(res *result, w workload, o runOpts, cached batchEpisode) {
	k, elapsed := 0, 0.0
	for _, d := range cached.roundMs {
		if k > 0 && elapsed+d > ms(o.prefixBudget) {
			break
		}
		elapsed += d
		k++
	}
	e, err := env.New(w.envOptions(o.seed))
	if err != nil {
		res.failCheck("uncached prefix: %v", err)
		return
	}
	e.Opt = optimizer.NewUncached(e.Schema, e.CM)
	p, err := e.NewPolicy(env.TunerKind(w.policy))
	if err != nil {
		res.failCheck("uncached prefix: %v", err)
		return
	}
	defer p.Close()
	run, err := e.RunPolicySpan(p, env.Span{To: k})
	if err != nil {
		res.failCheck("uncached prefix: %v", err)
		return
	}
	if !sameJSON(cached.results[:k], run.Rounds) {
		res.failCheck("first %d rounds differ with the plan cache off", k)
	}
}

func cacheDelta(a, b optimizer.PlanCacheStats) optimizer.PlanCacheStats {
	return optimizer.PlanCacheStats{
		Hits:          b.Hits - a.Hits,
		Misses:        b.Misses - a.Misses,
		Invalidations: b.Invalidations - a.Invalidations,
	}
}

// sameJSON reports whether a and b encode to the same JSON bytes.
func sameJSON(a, b any) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(x, y)
}
