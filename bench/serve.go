package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"dbabandits/internal/serve"
	benchmarks "dbabandits/internal/workload"
)

// replayWindows is how many final windows the replay check serves again
// from a restored checkpoint.
const replayWindows = 50

// streamText returns the serving workload's input in the line protocol
// cmd/serve reads: one line per window of size template ids, drawn
// uniformly from ids by a generator seeded with seed.
func streamText(seed int64, windows, size int, ids []int) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for w := 0; w < windows; w++ {
		for i := 0; i < size; i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.Itoa(ids[rng.Intn(len(ids))]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func templateIDs() ([]int, error) {
	b, err := benchmarks.ByName(benchmarkName)
	if err != nil {
		return nil, err
	}
	ids := make([]int, len(b.Templates))
	for i, t := range b.Templates {
		ids[i] = t.ID
	}
	return ids, nil
}

// serveEpisode is one pass of a session over the whole stream.
type serveEpisode struct {
	timing
	reports []*serve.WindowReport
	lines   [][]byte // each report as cmd/serve prints it
	config  []string // the session's configuration after the last window
	ckptKB  float64  // mean KiB per checkpoint written
}

// runServeEpisode serves the stream through s as `cmd/serve -checkpoint
// ckpt -every 1` does: per window Stream.Next, Session.Feed, JSON-encode
// the report, and Session.WriteCheckpoint. A window's times cover those
// four steps. After window mark (if positive) the checkpoint is
// copied to markPath for the replay check. With tr set, each step is a
// span.
func runServeEpisode(s *serve.Session, text, ckpt string, mark int, markPath string, tr *tracer) (serveEpisode, error) {
	var ep serveEpisode
	st := serve.NewStream(strings.NewReader(text), s)
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	var offsets []int
	var ckptBytes int64
	runtime.GC()
	h0 := readHeap()
	cpu0 := cpuTime()
	t0 := time.Now()
	for {
		w0 := now()
		tr.setID(st.Window() + 1)
		root := tr.begin(spWindow, noAllocs)
		i := tr.begin(spInstantiate, noAllocs)
		win, err := st.Next()
		tr.end(i, noAllocs)
		if err == io.EOF {
			tr.drop(root)
			break
		}
		if err != nil {
			return ep, err
		}
		i = tr.begin(spFeed, noAllocs)
		rep, err := s.Feed(win)
		tr.end(i, noAllocs)
		if err != nil {
			return ep, fmt.Errorf("window %d: %w", st.Window(), err)
		}
		i = tr.begin(spEncode, noAllocs)
		offsets = append(offsets, out.Len())
		err = enc.Encode(rep)
		tr.end(i, noAllocs)
		if err != nil {
			return ep, err
		}
		i = tr.begin(spCheckpoint, noAllocs)
		err = s.WriteCheckpoint(ckpt)
		tr.end(i, noAllocs)
		if err != nil {
			return ep, fmt.Errorf("window %d: %w", st.Window(), err)
		}
		tr.end(root, noAllocs)
		ep.addRound(w0, now())
		ep.reports = append(ep.reports, rep)
		ep.queries += len(win)
		if tr != nil {
			if fi, err := os.Stat(ckpt); err == nil {
				ckptBytes += fi.Size()
			}
		}
		if s.Window() == mark {
			if err := copyFile(ckpt, markPath); err != nil {
				return ep, err
			}
		}
	}
	ep.wall = time.Since(t0)
	ep.cpu = cpuTime() - cpu0
	ep.heap = readHeap().minus(h0)
	b := out.Bytes()
	for i, off := range offsets {
		end := len(b)
		if i+1 < len(offsets) {
			end = offsets[i+1]
		}
		ep.lines = append(ep.lines, b[off:end])
	}
	ep.config = s.Config()
	if n := len(ep.reports); n > 0 {
		ep.ckptKB = float64(ckptBytes) / 1024 / float64(n)
	}
	return ep, nil
}

// serveRun is the state one serving measurement shares across its steps.
type serveRun struct {
	opts     serve.Options
	text     string
	dir      string // scratch directory for checkpoint files
	mark     int    // window after which the replay check's checkpoint is kept
	markPath string
}

func newServeRun(w workload, o runOpts) (*serveRun, error) {
	ids, err := templateIDs()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".", ".bench-serve-")
	if err != nil {
		return nil, err
	}
	return &serveRun{
		opts:     serve.Options{Benchmark: benchmarkName, Seed: o.seed, MaxStoredRows: w.rows},
		text:     streamText(o.seed, w.rounds, w.window, ids),
		dir:      dir,
		mark:     w.rounds - min(replayWindows, w.rounds/2),
		markPath: filepath.Join(dir, "replay-from.ckpt"),
	}, nil
}

func (r *serveRun) close() { os.RemoveAll(r.dir) }

func (r *serveRun) ckpt(name string) string { return filepath.Join(r.dir, name) }

// runServe measures the serving workload end to end: set-up, whole
// episodes for the time budget, peak memory, and the output checks.
func runServe(w workload, o runOpts) (*result, error) {
	r, err := newServeRun(w, o)
	if err != nil {
		return nil, err
	}
	defer r.close()
	res := &result{workload: w.name}
	var (
		s      *serve.Session
		setups []float64
		eps    []timing
		first  serveEpisode
	)
	build := func() error {
		if s != nil {
			s.Close()
		}
		var err error
		s, err = serve.New(r.opts)
		return err
	}
	ckpt := r.ckpt("session.ckpt")
	loopStart := time.Now()
	for {
		// As in runBatch: the episode serves on the last of a batch of
		// timed builds.
		b, err := timeBuilds(o.setups, build)
		if err != nil {
			return nil, err
		}
		setups = append(setups, b...)
		ep, err := runServeEpisode(s, r.text, ckpt, r.mark, r.markPath, nil)
		s.Close()
		eps = append(eps, ep.timing)
		res.attempted += len(ep.roundMs)
		if err != nil {
			res.failed++
			res.attempted++
			res.failCheck("window failed: %v", err)
			return res, nil
		}
		if len(eps) == 1 {
			first = ep
		} else if !slices.EqualFunc(first.lines, ep.lines, bytes.Equal) {
			res.failCheck("episode %d reports differ from episode 1", len(eps))
		}
		if time.Since(loopStart)+ep.wall > o.budget() {
			break
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	r.checkReplay(res, first)
	var sim float64
	for _, rep := range first.reports {
		sim += rep.RecommendSec + rep.CreateSec + rep.ExecSec
	}
	addEndToEnd(res, w, setups, eps, rss, sim)
	return res, nil
}

// checkReplay restores the checkpoint kept after window r.mark, serves
// the remaining windows again, and checks that every report and the
// final configuration equal the uninterrupted episode's.
func (r *serveRun) checkReplay(res *result, ep serveEpisode) {
	s, err := serve.RestoreFile(r.markPath)
	if err != nil {
		res.failCheck("replay: %v", err)
		return
	}
	defer s.Close()
	st := serve.NewStream(strings.NewReader(r.text), s)
	if err := st.Skip(s.Window()); err != nil {
		res.failCheck("replay: %v", err)
		return
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for w := s.Window() + 1; w <= len(ep.lines); w++ {
		win, err := st.Next()
		if err != nil {
			res.failCheck("replay window %d: %v", w, err)
			return
		}
		rep, err := s.Feed(win)
		if err != nil {
			res.failCheck("replay window %d: %v", w, err)
			return
		}
		buf.Reset()
		if err := enc.Encode(rep); err != nil {
			res.failCheck("replay window %d: %v", w, err)
			return
		}
		if !bytes.Equal(buf.Bytes(), ep.lines[w-1]) {
			res.failCheck("replayed window %d report differs", w)
			return
		}
	}
	if !slices.Equal(s.Config(), ep.config) {
		res.failCheck("replayed final configuration differs")
	}
}

// traceServe is the traced pass over the serving workload: one untraced
// episode, then one whose session runs a tapped policy so the spans
// inside Feed and WriteCheckpoint are timed, then one traced recovery
// from the final checkpoint, as after a kill: RestoreFile, then a stream
// fast-forwarded past the served windows.
func traceServe(w workload, o runOpts) (*result, *tracer, error) {
	r, err := newServeRun(w, o)
	if err != nil {
		return nil, nil, err
	}
	defer r.close()
	res := &result{workload: w.name}
	s, err := serve.New(r.opts)
	if err != nil {
		return nil, nil, err
	}
	plain, err := runServeEpisode(s, r.text, r.ckpt("plain.ckpt"), r.mark, r.markPath, nil)
	s.Close()
	res.attempted += len(plain.roundMs)
	if err != nil {
		res.failed++
		res.attempted++
		res.failCheck("window failed: %v", err)
		return res, nil, nil
	}

	tr := newTracer(12 * w.rounds)
	var taps []*tap
	opts := r.opts
	opts.Policy = registerTap(w.policy, tr, func(t *tap) { taps = append(taps, t) })
	if s, err = serve.New(opts); err != nil {
		return nil, nil, err
	}
	opt := taps[0].opt
	stats0 := opt.CacheStats()
	traced := r.ckpt("traced.ckpt")
	ep, err := runServeEpisode(s, r.text, traced, 0, "", tr)
	s.Close()
	res.attempted += len(ep.roundMs)
	if err != nil {
		res.failed++
		res.attempted++
		res.failCheck("traced window failed: %v", err)
		return res, tr, nil
	}
	cache := cacheDelta(stats0, opt.CacheStats())
	if !slices.EqualFunc(plain.lines, ep.lines, bytes.Equal) || !slices.Equal(plain.config, ep.config) {
		res.failCheck("traced reports differ from the untraced episode's")
	}
	r.checkReplay(res, plain)

	tr.setID(0)
	i := tr.begin(spServeRestore, noAllocs)
	restored, err := serve.RestoreFile(traced)
	if err == nil {
		err = serve.NewStream(strings.NewReader(r.text), restored).Skip(restored.Window())
		restored.Close()
	}
	tr.end(i, noAllocs)
	if err != nil {
		return nil, nil, fmt.Errorf("restore: %w", err)
	}
	if err := validate(tr.spans); err != nil {
		res.failCheck("span tree: %v", err)
	}

	m := perLayer{
		spans: aggregate(tr.spans), rounds: len(ep.reports), root: spWindow,
		plainCPU: plain.roundCPUMs, tracedCPU: ep.roundCPUMs,
		heap: plain.heap, cache: cache, queries: ep.queries, checkpointKB: ep.ckptKB,
	}
	prev := map[string]bool{}
	for _, rep := range ep.reports {
		cur := map[string]bool{}
		for _, id := range rep.Indexes {
			cur[id] = true
			if !prev[id] {
				m.created++
			}
		}
		for id := range prev {
			if !cur[id] {
				m.dropped++
			}
		}
		prev = cur
		if rep.Violation {
			m.violations++
		}
		if rep.Intervention != "" {
			m.quarantines++
		}
	}
	addPerLayer(res, w, m)
	return res, tr, nil
}

func copyFile(from, to string) error {
	b, err := os.ReadFile(from)
	if err != nil {
		return err
	}
	return os.WriteFile(to, b, 0o644)
}
