package harness

import (
	"fmt"
	"os"
	"testing"

	"dbabandits/internal/env"
)

// TestProbeConvergence prints per-round series for manual calibration;
// enable with HARNESS_PROBE=<benchmark>.
func TestProbeConvergence(t *testing.T) {
	bench := os.Getenv("HARNESS_PROBE")
	if bench == "" {
		t.Skip("set HARNESS_PROBE=<benchmark> to run")
	}
	e, err := env.New(env.Options{
		Benchmark:     bench,
		Regime:        env.Static,
		ScaleFactor:   10,
		MaxStoredRows: 2000,
		Rounds:        25,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []env.TunerKind{env.NoIndex, env.PDTool, env.MAB} {
		res, err := e.Run(kind)
		if err != nil {
			t.Fatal(err)
		}
		rec, create, exec, total := res.Totals()
		fmt.Printf("%-8s rec=%8.1f create=%8.1f exec=%8.1f total=%8.1f final-exec=%7.1f idx=%d\n",
			kind, rec, create, exec, total, res.FinalRoundExecSec(), res.Rounds[len(res.Rounds)-1].NumIndexes)
		if os.Getenv("HARNESS_PROBE_ROUNDS") != "" {
			for _, r := range res.Rounds {
				fmt.Printf("  r%02d exec=%8.2f create=%8.2f idx=%d\n", r.Round, r.ExecSec, r.CreateSec, r.NumIndexes)
			}
		}
	}
}
