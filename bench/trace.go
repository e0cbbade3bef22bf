package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"syscall"
	"time"
	"unsafe"
)

// layer names a timed public call: the layer (module) it belongs to,
// then the step. The per-layer metrics are named after them.
type layer uint8

const (
	spRound       layer = iota // one batch round, the root of its spans
	spWindow                   // one serving window, the root of its spans
	spInstantiate              // Seq.Round, UpdatesAt or Stream.Next
	spRecommend
	spObserve
	spSnapshot
	spRestore
	spCreate
	spMaintain
	spPlan
	spExecute
	spFeed
	spEncode
	spCheckpoint
	spServeRestore
)

var layerNames = [...]string{
	spRound:        "env.round",
	spWindow:       "serve.window",
	spInstantiate:  "workload.instantiate",
	spRecommend:    "policy.recommend",
	spObserve:      "policy.observe",
	spSnapshot:     "policy.snapshot",
	spRestore:      "policy.restore",
	spCreate:       "env.create_price",
	spMaintain:     "env.maintain_price",
	spPlan:         "optimizer.plan",
	spExecute:      "engine.execute",
	spFeed:         "serve.feed",
	spEncode:       "serve.encode",
	spCheckpoint:   "serve.checkpoint",
	spServeRestore: "serve.restore",
}

func (l layer) String() string { return layerNames[l] }

// span is one timed call, in nanoseconds since the tracer began. ID is
// the round or window it belongs to (0 for calls outside any round);
// Parent is the index in the trace of the span open when this one began,
// -1 at top level. Alloc fields are set only on sampled spans. A span
// holds no pointers, so spans can live outside the Go heap.
type span struct {
	Start, End         int64
	AllocBytes, Allocs uint64
	ID, Parent         int32
	Layer              layer
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// The allocs argument of begin and end: whether the span counts the heap
// allocations made during the call.
const (
	noAllocs    = false
	countAllocs = true
)

// tracer keeps spans in memory while the traced pass runs; they are
// written out, if asked for, only after the timed work ends. A nil
// tracer records nothing, so untraced passes run the same code. It is
// not safe for concurrent use: every traced call runs on one goroutine.
type tracer struct {
	base  time.Time
	spans []span
	open  []int // indexes of the spans begun and not yet ended
	id    int32 // round or window now running
	heap  []metrics.Sample
}

// newTracer returns a tracer with room for capacity spans.
func newTracer(capacity int) *tracer {
	return &tracer{
		base:  time.Now(),
		spans: spanBuffer(capacity),
		heap: []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/gc/heap/allocs:objects"},
		},
	}
}

// spanBuffer returns an empty slice with room for n spans in memory
// outside the Go heap, so that recording spans does not change how often
// the collector runs: tens of MB of spans on the heap would make it run
// less often and the traced pass faster than the untraced one. The
// mapping lives until the process exits. Past n spans, or if the mapping
// fails, spans go on the heap.
func spanBuffer(n int) []span {
	size := n * int(unsafe.Sizeof(span{}))
	if size <= 0 {
		return nil
	}
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]span, 0, n)
	}
	return unsafe.Slice((*span)(unsafe.Pointer(&mem[0])), n)[:0]
}

// setID sets the round or window the next spans belong to.
func (t *tracer) setID(id int) {
	if t != nil {
		t.id = int32(id)
	}
}

// begin opens a span and returns its index for end. With allocs set, the
// span also counts the heap allocations made during the call, read from
// runtime/metrics without stopping the world (runtime.ReadMemStats would
// stop it, and wait for the second vCPU whenever the host has
// descheduled it). The runtime counts small allocations when an
// allocation span fills, so one call's count is coarse; summed over a
// run the attribution is right on average.
func (t *tracer) begin(l layer, allocs bool) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := len(t.spans)
	t.open = append(t.open, i)
	var b, n uint64
	if allocs {
		b, n = t.heapCounters()
	}
	t.spans = append(t.spans, span{Layer: l, ID: t.id, Parent: int32(parent), AllocBytes: b, Allocs: n})
	t.spans[i].Start = int64(time.Since(t.base))
	return i
}

// end closes span i, which must be the innermost open span; allocs
// must be as begin had it.
func (t *tracer) end(i int, allocs bool) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.base))
	s := &t.spans[i]
	s.End = end
	if allocs {
		b, n := t.heapCounters()
		s.AllocBytes, s.Allocs = b-s.AllocBytes, n-s.Allocs
	}
	t.open = t.open[:len(t.open)-1]
}

// drop discards open span i, the innermost open one, and every span
// begun inside it.
func (t *tracer) drop(i int) {
	if t == nil {
		return
	}
	t.spans = t.spans[:i]
	t.open = t.open[:len(t.open)-1]
}

func (t *tracer) heapCounters() (bytes, objects uint64) {
	metrics.Read(t.heap)
	return t.heap[0].Value.Uint64(), t.heap[1].Value.Uint64()
}

// layerStats aggregates the spans of one layer.
type layerStats struct {
	calls      int
	total      time.Duration
	self       time.Duration
	durs       []float64 // per-call durations, ms
	allocBytes uint64
	allocs     uint64
}

// aggregate folds the spans by layer. A span's self time is its duration
// minus the durations of its direct children, which the closed loop runs
// one after another inside it; validate checks that they do.
func aggregate(spans []span) map[layer]*layerStats {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[layer]*layerStats{}
	for i, s := range spans {
		ls := out[s.Layer]
		if ls == nil {
			ls = &layerStats{}
			out[s.Layer] = ls
		}
		ls.calls++
		ls.total += s.dur()
		ls.self += s.dur() - child[i]
		ls.durs = append(ls.durs, ms(s.dur()))
		ls.allocBytes += s.AllocBytes
		ls.allocs += s.Allocs
	}
	return out
}

// validate checks the span tree: every span closed, every child inside
// its parent, and siblings disjoint — the conditions under which the
// self times of a root and everything below it add up to its duration.
func validate(spans []span) error {
	lastEnd := map[int32]int64{} // parent index -> end of its latest child
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.Layer)
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) lies outside its parent %s", i, s.Layer, p.Layer)
		}
		if e, ok := lastEnd[s.Parent]; ok && s.Start < e {
			return fmt.Errorf("span %d (%s) overlaps a sibling", i, s.Layer)
		}
		lastEnd[s.Parent] = s.End
	}
	return nil
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		line := struct {
			Name       string `json:"name"`
			ID         int32  `json:"id"`
			Parent     int32  `json:"parent"`
			Start      int64  `json:"start_ns"`
			End        int64  `json:"end_ns"`
			AllocBytes uint64 `json:"alloc_bytes,omitempty"`
			Allocs     uint64 `json:"allocs,omitempty"`
		}{s.Layer.String(), s.ID, s.Parent, s.Start, s.End, s.AllocBytes, s.Allocs}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
