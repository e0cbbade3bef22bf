package cli

import (
	"flag"
	"testing"
)

// TestSharedFlagNamesAndDefaults pins the shared vocabulary: the flag
// names and defaults every command inherits from this package.
func TestSharedFlagNamesAndDefaults(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	bench := Bench(fs, "tpch")
	sf, rows, seed := Data(fs)
	budget := Budget(fs)
	parallel, progress := Parallel(fs)
	for _, name := range []string{"bench", "sf", "rows", "seed", "budget", "parallel", "progress"} {
		if fs.Lookup(name) == nil {
			t.Fatalf("flag -%s not registered", name)
		}
	}
	if err := fs.Parse([]string{"-bench", "ssb", "-parallel", "2"}); err != nil {
		t.Fatal(err)
	}
	if *bench != "ssb" || *parallel != 2 {
		t.Fatalf("parsed bench=%q parallel=%d", *bench, *parallel)
	}
	if *sf != 10 || *rows != 5000 || *seed != 1 || *budget != 1 || *progress {
		t.Fatalf("defaults sf=%v rows=%v seed=%v budget=%v progress=%v", *sf, *rows, *seed, *budget, *progress)
	}
}

func TestLabels(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	labels := Labels(fs)
	if err := fs.Parse([]string{"-label", "ridge=sm", "-label", "host=ci"}); err != nil {
		t.Fatal(err)
	}
	m := labels()
	if m["ridge"] != "sm" || m["host"] != "ci" || len(m) != 2 {
		t.Fatalf("labels = %v", m)
	}
	fs2 := flag.NewFlagSet("t", flag.ContinueOnError)
	empty := Labels(fs2)
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if empty() != nil {
		t.Fatal("empty labels should be nil")
	}
	fs3 := flag.NewFlagSet("t", flag.ContinueOnError)
	fs3.SetOutput(discard{})
	Labels(fs3)
	if err := fs3.Parse([]string{"-label", "novalue"}); err == nil {
		t.Fatal("malformed -label accepted")
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
