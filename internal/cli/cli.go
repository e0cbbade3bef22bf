// Package cli centralises the flag definitions and exit conventions
// shared by the repo's commands (mabtune, experiments, fleet, serve,
// benchjson, benchdiff), so every binary spells the common knobs
// identically and exits the same way on a refused input — one
// name, one default, one help string, one validation path — instead of
// each main.go re-declaring its own drifting copy.
package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"dbabandits/internal/policy"
)

// BenchHelp is the canonical benchmark enumeration help string.
const BenchHelp = "benchmark: ssb|tpch|tpch-skew|tpcds|imdb"

// Bench registers the -bench flag with the given default.
func Bench(fs *flag.FlagSet, def string) *string {
	return fs.String("bench", def, BenchHelp)
}

// Data registers the data-generation knobs every experiment shares:
// -sf, -rows and -seed.
func Data(fs *flag.FlagSet) (sf *float64, rows *int, seed *int64) {
	sf = fs.Float64("sf", 10, "scale factor")
	rows = fs.Int("rows", 5000, "max stored (physical) rows per table")
	seed = fs.Int64("seed", 1, "experiment seed")
	return sf, rows, seed
}

// Budget registers the -budget flag (index memory budget as a multiple
// of the data size).
func Budget(fs *flag.FlagSet) *float64 {
	return fs.Float64("budget", 1, "memory budget as a multiple of data size")
}

// Policy registers a policy-selector flag under the given name, with
// the registry's names in the help text.
func Policy(fs *flag.FlagSet, name, def string) *string {
	return fs.String(name, def, "policy: "+strings.Join(policy.Names(), "|"))
}

// Parallel registers the sweep concurrency knobs: -parallel and
// -progress.
func Parallel(fs *flag.FlagSet) (parallel *int, progress *bool) {
	parallel = fs.Int("parallel", runtime.GOMAXPROCS(0),
		"max experiment cells run concurrently (output is identical at any value)")
	progress = fs.Bool("progress", false, "print per-cell completion lines to stderr")
	return parallel, progress
}

// Labels registers the repeatable -label key=value annotation flag and
// returns an accessor for the collected map (nil when none were given).
func Labels(fs *flag.FlagSet) func() map[string]string {
	m := map[string]string{}
	fs.Func("label", "annotate the capture with key=value (repeatable)", func(kv string) error {
		key, value, ok := strings.Cut(kv, "=")
		if !ok || key == "" {
			return fmt.Errorf("want key=value, got %q", kv)
		}
		m[key] = value
		return nil
	})
	return func() map[string]string {
		if len(m) == 0 {
			return nil
		}
		return m
	}
}

// Fatal prints "<cmd>: <err>" to stderr and exits 1 — the uniform
// error exit of every command.
func Fatal(cmd string, err error) {
	fmt.Fprintln(os.Stderr, cmd+":", err)
	os.Exit(1)
}
