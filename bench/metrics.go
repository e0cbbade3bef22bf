package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"dbabandits/internal/optimizer"
)

// timing is what one timed loop over an episode measured.
type timing struct {
	roundMs    []float64 // wall time per round or window
	roundCPUMs []float64 // CPU time of the driving thread per round or window
	wall       time.Duration
	cpu        time.Duration // CPU time of the whole process
	queries    int           // analytical queries executed
	heap       heapDelta
}

// addRound records one round or window that ran from one stamp to the
// next.
func (t *timing) addRound(from, to stamp) {
	t.roundMs = append(t.roundMs, ms(to.wall.Sub(from.wall)))
	t.roundCPUMs = append(t.roundCPUMs, ms(to.cpu-from.cpu))
}

func (t *timing) dropLastRound() {
	if n := len(t.roundMs); n > 0 {
		t.roundMs, t.roundCPUMs = t.roundMs[:n-1], t.roundCPUMs[:n-1]
	}
}

// addEndToEnd adds the end-to-end metrics, in BENCHMARK.json's order,
// from the set-up times (s), the timed episodes, the peak RSS and one
// episode's simulated seconds.
//
// The round metrics are CPU times, not wall times: on a shared host the
// hypervisor withholds the CPU from the VM for a share of the time that
// changes from minute to minute, and wall time counts it while CPU time
// does not. The wall-clock values are printed in the notes.
func addEndToEnd(res *result, w workload, setups []float64, eps []timing, rssMB, simSec float64) {
	var walls, cpus []float64
	var wall, cpu time.Duration
	var queries int
	for _, ep := range eps {
		walls = append(walls, ep.roundMs...)
		cpus = append(cpus, ep.roundCPUMs...)
		wall += ep.wall
		cpu += ep.cpu
		queries += ep.queries
	}
	var roundCPU float64
	for _, c := range cpus {
		roundCPU += c
	}
	walls, cpus = sorted(walls), sorted(cpus)
	n := len(cpus)
	res.add("setup_s", "s", median(setups), fmt.Sprintf("median CPU time of %d fresh builds", len(setups)))
	res.add("round_cpu_p50_ms", "ms", percentile(cpus, 50),
		fmt.Sprintf("n=%d %ss in %d episode(s); wall-clock median %.4g ms", n, w.sample(), len(eps), percentile(walls, 50)))
	res.add("round_cpu_p95_ms", "ms", percentile(cpus, 95),
		fmt.Sprintf("highest percentile with >=%d samples beyond it: p%d; wall-clock p95 %.4g ms",
			minTail, tailPercentile(n), percentile(walls, 95)))
	res.add("cpu_throughput_qps", "queries/s", float64(queries)/(roundCPU/1000),
		fmt.Sprintf("%d analytical queries in %.2f s of CPU time; wall-clock %.5g queries/s", queries, roundCPU/1000, float64(queries)/wall.Seconds()))
	res.add("process_cpu_ms_per_round", "ms", ms(cpu)/float64(n), "user+sys CPU of all threads, collection included")
	res.add("peak_rss_mb", "MB", rssMB, "VmHWM before the output checks")
	res.add("sim_total_s", "sim_s", simSec, "simulated recommend+create+execute+maintain seconds of one episode")
}

// perLayer holds what the traced pass measured.
type perLayer struct {
	spans  map[layer]*layerStats
	rounds int
	root   layer     // the span of one round or window
	heap   heapDelta // over the untraced episode
	cache  optimizer.PlanCacheStats

	// CPU ms of the driving thread per untraced and per traced round,
	// for the tracing overhead.
	plainCPU, tracedCPU []float64

	queries, created, dropped, updates int

	checkpointKB            float64 // mean KiB written per checkpoint
	violations, quarantines int
}

// addPerLayer adds the per-layer metrics, in BENCHMARK.json's order.
// Times and counts are per round (or window) unless marked per call. A
// layer the workload never calls reads 0.
func addPerLayer(res *result, w workload, m perLayer) {
	n := float64(m.rounds)
	get := func(l layer) *layerStats {
		if ls := m.spans[l]; ls != nil {
			return ls
		}
		return &layerStats{}
	}
	perRound := func(l layer) float64 { return ms(get(l).total) / n }
	perCall := func(l layer) float64 {
		ls := get(l)
		if ls.calls == 0 {
			return 0
		}
		return ms(ls.total) / float64(ls.calls)
	}
	p95 := func(l layer) float64 {
		if ls := get(l); ls.calls > 0 {
			return percentile(sorted(ls.durs), 95)
		}
		return 0
	}
	rec := get(spRecommend)
	calls := float64(m.cache.Hits + m.cache.Misses)
	hitRatio := 0.0
	if calls > 0 {
		hitRatio = float64(m.cache.Hits) / calls
	}
	per := "per " + w.sample()

	res.add("workload.instantiate_ms", "ms", perRound(spInstantiate), "Seq.Round + UpdatesAt, or Stream.Next")
	res.add("workload.queries", "count", float64(m.queries)/n, "analytical queries "+per)
	res.add("policy.recommend_ms", "ms", perRound(spRecommend), "")
	res.add("policy.recommend_p95_ms", "ms", p95(spRecommend), "")
	res.add("policy.recommend_alloc_kb", "kB", float64(rec.allocBytes)/1024/n, "runtime/metrics")
	res.add("policy.recommend_allocs", "count", float64(rec.allocs)/n, "runtime/metrics")
	res.add("policy.observe_ms", "ms", perRound(spObserve), "Observe + ObserveUpdates")
	res.add("policy.snapshot_ms", "ms", perCall(spSnapshot), "per call")
	res.add("policy.restore_ms", "ms", perCall(spRestore), "per call")
	res.add("env.create_price_ms", "ms", perRound(spCreate), "Config.DiffBoth + CreationCost")
	res.add("env.indexes_created", "count", float64(m.created)/n, "")
	res.add("env.indexes_dropped", "count", float64(m.dropped)/n, "")
	res.add("env.maintain_price_ms", "ms", perRound(spMaintain), "MaintenanceCost")
	res.add("env.updates", "count", float64(m.updates)/n, "update statements")
	res.add("optimizer.plan_ms", "ms", perRound(spPlan), "ChoosePlan in the execute step")
	res.add("optimizer.plan_alloc_kb", "kB", float64(get(spPlan).allocBytes)/1024/n, "runtime/metrics")
	res.add("optimizer.plan_calls", "count", float64(get(spPlan).calls)/n, "")
	res.add("optimizer.calls", "count", calls/n, "logical plan and what-if calls of every caller")
	res.add("optimizer.hit_ratio", "ratio", hitRatio, "plan-cache hits / calls")
	res.add("optimizer.invalidations", "count", float64(m.cache.Invalidations)/n, "")
	res.add("engine.execute_ms", "ms", perRound(spExecute), "")
	res.add("engine.query_p95_ms", "ms", p95(spExecute), "per engine.Execute call")
	res.add("engine.execute_alloc_kb", "kB", float64(get(spExecute).allocBytes)/1024/n, "runtime/metrics")
	res.add("engine.execute_allocs", "count", float64(get(spExecute).allocs)/n, "runtime/metrics")
	res.add("env.driver_self_ms", "ms", ms(get(m.root).self)/n, "round minus its timed children; includes the tracer's own cost")
	res.add("serve.feed_ms", "ms", perRound(spFeed), "Session.Feed")
	res.add("serve.feed_self_ms", "ms", ms(get(spFeed).self)/n, "Feed minus Recommend and Observe")
	res.add("serve.checkpoint_ms", "ms", perRound(spCheckpoint), "Session.WriteCheckpoint")
	res.add("serve.checkpoint_p95_ms", "ms", p95(spCheckpoint), "")
	res.add("serve.checkpoint_kb", "kB", m.checkpointKB, "written per checkpoint")
	res.add("serve.restore_ms", "ms", perCall(spServeRestore), "RestoreFile + NewStream + Skip, per call")
	res.add("serve.violations", "count", float64(m.violations), "guardrail budget violations in the episode")
	res.add("serve.quarantines", "count", float64(m.quarantines), "guardrail quarantines in the episode")
	res.add("runtime.alloc_mb", "MB", float64(m.heap.allocBytes)/(1<<20)/n, "untraced episode")
	res.add("runtime.gc_cycles", "count", float64(m.heap.gcCycles)/n, "untraced episode")
	res.add("trace_overhead_frac", "ratio", median(m.tracedCPU)/median(m.plainCPU)-1,
		"traced vs untraced median CPU time per "+w.sample())
}

// printSplit writes the share of the traced rounds' time each layer's
// self time takes, largest first: the layer split README.md records.
// Only spans inside rounds count; their self times add up to the
// rounds' total.
func printSplit(out io.Writer, workload string, spans []span, root layer) {
	var inside []span
	for _, s := range spans {
		if s.ID > 0 {
			inside = append(inside, s)
		}
	}
	agg := aggregate(inside)
	r := agg[root]
	if r == nil || r.total == 0 {
		return
	}
	layers := make([]layer, 0, len(agg))
	var covered time.Duration
	for l, ls := range agg {
		layers = append(layers, l)
		covered += ls.self
	}
	sort.Slice(layers, func(i, j int) bool { return agg[layers[i]].self > agg[layers[j]].self })
	parts := make([]string, len(layers))
	for i, l := range layers {
		parts[i] = fmt.Sprintf("%s %.1f%%", l, 100*float64(agg[l].self)/float64(r.total))
	}
	fmt.Fprintf(out, "# %s layer split (self time / round time): %s; sum %.1f%%\n",
		workload, strings.Join(parts, ", "), 100*float64(covered)/float64(r.total))
}

// heapDelta counts heap allocation and collections between two reads.
type heapDelta struct{ allocBytes, gcCycles uint64 }

func readHeap() heapDelta {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return heapDelta{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

func (h heapDelta) minus(o heapDelta) heapDelta {
	return heapDelta{h.allocBytes - o.allocBytes, h.gcCycles - o.gcCycles}
}

// timeBuilds runs build n times, each after a full collection, and
// returns the CPU seconds of the driving thread each took.
func timeBuilds(n int, build func() error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		c0 := threadCPU()
		if err := build(); err != nil {
			return nil, err
		}
		out = append(out, (threadCPU() - c0).Seconds())
	}
	return out, nil
}
