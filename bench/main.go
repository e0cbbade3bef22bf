// Command bench is the repository's end-to-end benchmark. It drives the
// tuner only through the entry points users run —
// env.Environment.RunPolicySpan for batch rounds, and serve.NewStream,
// Session.Feed and Session.WriteCheckpoint for serving — in a closed
// loop with one client, checks the outputs, and prints every metric by
// name with its unit. The last line of its output is the result as one
// JSON object.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload static-tpcds --seed 1 --seconds 28 --trace 0
//	bash bench/run.sh --workload all --seed 2
//	bash bench/run.sh --workload serve-tpcds --trace 1 --spans spans.jsonl
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the traced pass instead, which times each layer's public calls
// from outside, and reports the per-layer metrics. README.md lists the
// workloads and metrics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"time"
)

// runOpts are the settings one measurement shares.
type runOpts struct {
	seed    int64
	seconds int // how long the timed loop runs whole episodes for
	setups  int // how many fresh builds are timed for setup_s before each episode
	// prefixBudget bounds the uncached-optimiser check: it replays the
	// rounds the cached run finished within this much wall time.
	prefixBudget time.Duration
}

func (o runOpts) budget() time.Duration { return time.Duration(o.seconds) * time.Second }

var errChecks = errors.New("an output check failed")

func main() {
	name := flag.String("workload", "all", "workload to run, or all to run each in its own child process")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 28, "time budget of the timed loop: whole episodes while they fit, at least one")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics instead of end-to-end ones")
	spans := flag.String("spans", "", "with --trace 1, also write the traced pass's spans to this file as JSON lines")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, not %d", *trace))
	}
	if *name == "all" {
		fatal(runAll(*seed, *seconds, *trace, *spans))
		return
	}
	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	o := runOpts{seed: *seed, seconds: *seconds, setups: 6, prefixBudget: 500 * time.Millisecond}
	fatal(run(os.Stdout, w, o, *trace == 1, *spans))
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run measures one workload and prints its result. It returns errChecks
// after printing a result whose output checks failed, and any other
// error without printing one.
func run(out io.Writer, w workload, o runOpts, traced bool, spansPath string) error {
	// Every timed call runs on this goroutine; pinning it to one thread
	// lets threadCPU measure it.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	printHost(out, "start")
	stat0 := readCPUStat()
	fmt.Fprintf(out, "# workload %s: %s, seed %d\n", w.name, w.describe(), o.seed)
	var (
		res *result
		tr  *tracer
		err error
	)
	switch {
	case traced && w.serving():
		res, tr, err = traceServe(w, o)
	case traced:
		res, tr, err = traceBatch(w, o)
	case w.serving():
		res, err = runServe(w, o)
	default:
		res, err = runBatch(w, o)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if tr != nil {
		root := spRound
		if w.serving() {
			root = spWindow
		}
		printSplit(out, w.name, tr.spans, root)
		if spansPath != "" {
			if err := writeSpans(spansPath, tr.spans); err != nil {
				return err
			}
		}
	}
	printHost(out, "end")
	printSteal(out, stat0)
	if err := res.print(out); err != nil {
		return err
	}
	if !res.correct() {
		return errChecks
	}
	return nil
}

// runAll runs every workload, one at a time, each in a child process of
// its own so that no heap or collector state carries over.
func runAll(seed int64, seconds, trace int, spans string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads {
		args := []string{"--workload", w.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace)}
		if spans != "" {
			args = append(args, "--spans", spans+"."+w.name)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, w.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %v", failed)
	}
	return nil
}
