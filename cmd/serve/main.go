// Command serve runs the online serving mode: a long-lived tuner
// session fed statement windows from a stream, checkpointing to disk at
// window boundaries and supervised by the runtime safety guardrail.
//
// The stream (stdin by default, or -stream FILE) is the line protocol:
// one line per window, each a whitespace-separated list of template ids
// from the benchmark's template set ("1 2 2 5" — repeat an id for
// multiple instances); '#' starts a comment. Each served window prints
// one JSON report line on stdout, and a final JSON summary line carries
// the session's closing configuration.
//
// Usage:
//
//	serve -bench ssb -policy mab -checkpoint tuner.ckpt < stream.txt
//	serve -restore -checkpoint tuner.ckpt < stream.txt   # resume killed run
//	serve -policy mab -stop-after 5 -checkpoint tuner.ckpt < stream.txt
//
// A restored session skips the stream's already-served prefix and then
// recommends byte-identically to a session that was never interrupted —
// the property TestCommandSmokes checks end to end. A checkpoint that
// is truncated, fails its checksum, has another format version or does
// not parse is refused: -restore exits 1 naming the kind.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"dbabandits/internal/cli"
	"dbabandits/internal/serve"
)

func main() {
	var (
		bench          = cli.Bench(flag.CommandLine, "ssb")
		sf, rows, seed = cli.Data(flag.CommandLine)
		budget         = cli.Budget(flag.CommandLine)
		pol            = cli.Policy(flag.CommandLine, "policy", "mab")

		streamPath = flag.String("stream", "-", "window stream file ('-' = stdin)")
		ckptPath   = flag.String("checkpoint", "", "checkpoint file (written at window boundaries)")
		restore    = flag.Bool("restore", false, "resume from -checkpoint, skipping the stream's served prefix")
		every      = flag.Int("every", 1, "checkpoint every N windows")
		stopAfter  = flag.Int("stop-after", 0, "serve at most N windows this process (0 = to stream end)")

		noGuard       = flag.Bool("no-guard", false, "disable the safety guardrail")
		guardX        = flag.Float64("guard-budget-x", 0, "guardrail budget multiple of baseline (0 = default 2.0)")
		guardAfter    = flag.Int("guard-after", 0, "violation streak that trips quarantine (0 = default 2)")
		guardCooldown = flag.Int("guard-cooldown", 0, "windows served under the safe config after quarantine (0 = default 2)")
		guardForget   = flag.Float64("guard-forget", 0, "policy forgetting factor applied on quarantine (0 = off)")
	)
	flag.Parse()
	if *every < 1 {
		*every = 1
	}

	var s *serve.Session
	var err error
	if *restore {
		if *ckptPath == "" {
			cli.Fatal("serve", fmt.Errorf("-restore needs -checkpoint"))
		}
		s, err = serve.RestoreFile(*ckptPath)
		var ce *serve.CheckpointError
		if errors.As(err, &ce) {
			cli.Fatal("serve", fmt.Errorf("-restore refused a %s checkpoint: %w", ce.Kind, err))
		}
	} else {
		s, err = serve.New(serve.Options{
			Benchmark:     *bench,
			ScaleFactor:   *sf,
			MaxStoredRows: *rows,
			Seed:          *seed,
			MemoryBudgetX: *budget,
			Policy:        *pol,
			Guardrail: serve.GuardrailOptions{
				Disabled:        *noGuard,
				BudgetX:         *guardX,
				QuarantineAfter: *guardAfter,
				CooldownWindows: *guardCooldown,
				ForgetFactor:    *guardForget,
			},
		})
	}
	if err != nil {
		cli.Fatal("serve", err)
	}
	defer s.Close()

	in := io.Reader(os.Stdin)
	if *streamPath != "-" {
		f, err := os.Open(*streamPath)
		if err != nil {
			cli.Fatal("serve", err)
		}
		defer f.Close()
		in = f
	}
	st := serve.NewStream(in, s)
	if s.Window() > 0 {
		if err := st.Skip(s.Window()); err != nil {
			cli.Fatal("serve", err)
		}
	}

	enc := json.NewEncoder(os.Stdout)
	served := 0
	for *stopAfter <= 0 || served < *stopAfter {
		win, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			cli.Fatal("serve", err)
		}
		rep, err := s.Feed(win)
		if err != nil {
			cli.Fatal("serve", err)
		}
		if err := enc.Encode(rep); err != nil {
			cli.Fatal("serve", err)
		}
		served++
		if *ckptPath != "" && s.Window()%*every == 0 {
			if err := s.WriteCheckpoint(*ckptPath); err != nil {
				cli.Fatal("serve", err)
			}
		}
	}
	if *ckptPath != "" {
		if err := s.WriteCheckpoint(*ckptPath); err != nil {
			cli.Fatal("serve", err)
		}
	}
	summary := struct {
		Served      int
		Window      int
		Quarantines int
		Config      []string
	}{served, s.Window(), s.Quarantines(), s.Config()}
	if err := enc.Encode(summary); err != nil {
		cli.Fatal("serve", err)
	}
}
