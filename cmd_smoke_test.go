package dbabandits

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCommandSmokes builds the experiments, fleet, serve and mabtune
// commands once and checks their end-to-end contracts on stdout:
//
//   - htap: the hybrid-regime comparison prints the same bytes at
//     -parallel 1 and 4;
//   - fleet: an 8-tenant heterogeneous fleet prints the same bytes at
//     -parallel 1 and 4 — tenant scheduling never leaks into a number;
//   - serve: a 5-window stream served to the end matches the same
//     stream served to a window-3 checkpoint, killed, and restored from
//     disk (the process-local "Served" counter in the summary line is
//     masked);
//   - removed flags: -ridge and -forget-rank are gone, so passing either
//     exits 2 like any unknown flag.
func TestCommandSmokes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the commands")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin,
		"./cmd/experiments", "./cmd/fleet", "./cmd/serve", "./cmd/mabtune")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	work := t.TempDir()
	run := func(t *testing.T, name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		cmd.Dir = work
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s %s: %v", name, strings.Join(args, " "), err)
		}
		return string(out)
	}

	const stream = "1 2 3 4\n2 3 1\n5 5 2\n1 4\n3 2 1\n"
	if err := os.WriteFile(filepath.Join(work, "stream.txt"), []byte(stream), 0o644); err != nil {
		t.Fatal(err)
	}
	served := regexp.MustCompile(`"Served":[0-9]*`)
	// serveLines returns the window report lines followed by the summary
	// line with its Served counter masked.
	serveLines := func(out string) []string {
		lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
		last := len(lines) - 1
		lines[last] = served.ReplaceAllString(lines[last], `"Served":0`)
		return lines
	}

	cases := []struct {
		name      string
		want, got func(t *testing.T) string
	}{
		{
			name: "htap",
			want: func(t *testing.T) string { return run(t, "experiments", "-exp", "htap", "-quick", "-parallel", "1") },
			got:  func(t *testing.T) string { return run(t, "experiments", "-exp", "htap", "-quick", "-parallel", "4") },
		},
		{
			name: "fleet",
			want: func(t *testing.T) string {
				return run(t, "fleet", "-tenants", "8", "-rounds", "3", "-rows", "500", "-parallel", "1")
			},
			got: func(t *testing.T) string {
				return run(t, "fleet", "-tenants", "8", "-rounds", "3", "-rows", "500", "-parallel", "4")
			},
		},
		{
			name: "serve",
			want: func(t *testing.T) string {
				return strings.Join(serveLines(run(t, "serve", "-stream", "stream.txt")), "\n")
			},
			got: func(t *testing.T) string {
				head := serveLines(run(t, "serve", "-stream", "stream.txt", "-checkpoint", "serve.ckpt", "-stop-after", "3"))
				tail := serveLines(run(t, "serve", "-restore", "-stream", "stream.txt", "-checkpoint", "serve.ckpt"))
				stitched := append(head[:3:3], tail...)
				return strings.Join(stitched, "\n")
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, got := tc.want(t), tc.got(t)
			if want == "" {
				t.Fatal("empty stdout")
			}
			if got != want {
				t.Fatalf("stdout differs:\n%s\nvs\n%s", got, want)
			}
		})
	}

	t.Run("removed flags", func(t *testing.T) {
		for _, args := range [][]string{
			{"experiments", "-ridge", "sm"},
			{"fleet", "-ridge", "sm"},
			{"mabtune", "-ridge", "sm"},
			{"serve", "-ridge", "sm"},
			{"mabtune", "-forget-rank", "0"},
			{"serve", "-forget-rank", "0"},
		} {
			cmd := exec.Command(filepath.Join(bin, args[0]), args[1:]...)
			cmd.Dir = work
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Errorf("%s: err %v, want exit status 2", strings.Join(args, " "), err)
			}
		}
	})
}
