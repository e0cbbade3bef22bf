package harness

import (
	"fmt"
	"os"
	"testing"

	"dbabandits/internal/engine"
	"dbabandits/internal/env"
	"dbabandits/internal/mab"
	"dbabandits/internal/query"
)

// TestProbeMABTrace traces the MAB's choices round by round; enable with
// HARNESS_MAB_TRACE=<benchmark>.
func TestProbeMABTrace(t *testing.T) {
	bench := os.Getenv("HARNESS_MAB_TRACE")
	if bench == "" {
		t.Skip("set HARNESS_MAB_TRACE=<benchmark> to run")
	}
	e, err := env.New(env.Options{
		Benchmark: bench, Regime: env.Static, ScaleFactor: 10,
		MaxStoredRows: 5000, Rounds: 12, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	tuner := mab.NewTuner(e.Schema, e.DB.DataSizeBytes(), mab.TunerOptions{MemoryBudgetBytes: e.Budget})
	var last []*query.Query
	for r := 1; r <= 12; r++ {
		rec := tuner.Recommend(last)
		per, createSec := e.CreationCost(rec.ToCreate)
		wl := e.Seq.Round(r)
		var stats []*engine.ExecStats
		var exec float64
		usedIdx := map[string]float64{}
		for _, q := range wl {
			plan, err := e.Opt.ChoosePlan(q, rec.Config)
			if err != nil {
				t.Fatal(err)
			}
			st, err := engine.Execute(e.DB, plan, e.CM)
			if err != nil {
				t.Fatal(err)
			}
			for id, acc := range st.IndexAccessSec {
				usedIdx[id] += st.TableScanSec[acc.Table] - acc.Sec
			}
			stats = append(stats, st)
			exec += st.TotalSec
		}
		tuner.ObserveExecution(stats, per)
		last = wl
		fmt.Printf("r%02d arms=%4d cfg=%2d create=%7.1f exec=%7.1f used=%d\n",
			r, rec.NumArms, rec.Config.Len(), createSec, exec, len(usedIdx))
		if r == 12 || r == 6 {
			for _, id := range rec.Config.IDs() {
				fmt.Printf("    cfg: %-90s gain=%8.1f\n", id, usedIdx[id])
			}
		}
	}
}
