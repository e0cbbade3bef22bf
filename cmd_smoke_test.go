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
//   - removed flags: -ridge and -forget-rank are gone, and so are
//     fleet's -sf (each tenant's scale factor comes from the fleet
//     generator), -no-transfer, -transfer-rounds and -early-rounds, so
//     passing any of them exits 2 like any unknown flag;
//   - refused flags: a fleet of fewer than one tenant, an unknown or
//     empty -exp name and -reps below 1 each exit 1 with one line on
//     stderr and nothing on stdout;
//   - refused checkpoint: -restore from the serve case's checkpoint cut
//     in half exits 1, names the refusal's kind on stderr and prints no
//     report.
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
			{"fleet", "-sf", "1"},
			{"fleet", "-no-transfer"},
			{"fleet", "-transfer-rounds", "3"},
			{"fleet", "-early-rounds", "5"},
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

	t.Run("refused flags", func(t *testing.T) {
		for _, tc := range []struct {
			args   []string
			stderr string
		}{
			{[]string{"fleet", "-tenants", "-2"}, "fleet: no tenants\n"},
			{[]string{"experiments", "-exp", "fig9"}, `experiments: unknown -exp "fig9" (valid: fig2, fig3, fig4, fig5, fig6, fig7, table1, table2, fig8, htap, all)` + "\n"},
			{[]string{"experiments", "-exp", ""}, `experiments: unknown -exp "" (valid: fig2, fig3, fig4, fig5, fig6, fig7, table1, table2, fig8, htap, all)` + "\n"},
			{[]string{"experiments", "-exp", "fig8", "-quick", "-rows", "400", "-reps", "0"}, "experiments: -reps must be at least 1, got 0\n"},
		} {
			cmd := exec.Command(filepath.Join(bin, tc.args[0]), tc.args[1:]...)
			cmd.Dir = work
			var stderr strings.Builder
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 || len(out) != 0 || stderr.String() != tc.stderr {
				t.Errorf("%s: err %v, stdout %q, stderr %q; want exit status 1, no output and stderr %q",
					strings.Join(tc.args, " "), err, out, stderr.String(), tc.stderr)
			}
		}
	})

	t.Run("refused checkpoint", func(t *testing.T) {
		img, err := os.ReadFile(filepath.Join(work, "serve.ckpt"))
		if err != nil {
			t.Fatalf("the serve case leaves no checkpoint: %v", err)
		}
		if err := os.WriteFile(filepath.Join(work, "cut.ckpt"), img[:len(img)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(filepath.Join(bin, "serve"), "-restore", "-stream", "stream.txt", "-checkpoint", "cut.ckpt")
		cmd.Dir = work
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || len(out) != 0 {
			t.Fatalf("restore from a cut checkpoint: err %v, stdout %q; want exit status 1 and no output", err, out)
		}
		if !strings.Contains(stderr.String(), "refused a truncated checkpoint") {
			t.Fatalf("stderr %q does not name the refusal's kind", stderr.String())
		}
	})
}
