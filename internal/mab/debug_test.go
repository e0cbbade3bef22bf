package mab

import (
	"fmt"
	"os"
	"testing"

	"dbabandits/internal/engine"
)

// TestDebugLoop prints the per-round state of the mini harness; it only
// runs when MAB_DEBUG=1 and exists to diagnose convergence issues.
func TestDebugLoop(t *testing.T) {
	if os.Getenv("MAB_DEBUG") == "" {
		t.Skip("set MAB_DEBUG=1 to run")
	}
	h := newMiniHarness(t, TunerOptions{})
	for round := 1; round <= 12; round++ {
		rec := h.tuner.Recommend(h.lastWorkload)
		fmt.Printf("round %d: arms=%d cfg=%v\n", round, rec.NumArms, rec.Config.IDs())
		creation := map[string]float64{}
		h.createSec = 0
		for _, ix := range rec.ToCreate {
			meta := h.schema.MustTable(ix.Table)
			sec := h.cm.IndexBuildSec(meta, ix.SizeBytes(meta))
			creation[ix.ID()] = sec
			h.createSec += sec
		}
		var stats []*engine.ExecStats
		h.execSec = 0
		wl := selectiveWorkload(round)
		for _, q := range wl {
			plan, err := h.opt.ChoosePlan(q, rec.Config)
			if err != nil {
				t.Fatal(err)
			}
			st, err := engine.Execute(h.db, plan, h.cm)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Printf("  q%d plan=%s total=%.3f usage=%v\n", q.TemplateID, st.Plan, st.TotalSec, st.IndexAccessSec)
			stats = append(stats, st)
			h.execSec += st.TotalSec
		}
		h.tuner.ObserveExecution(stats, creation)
		h.lastWorkload = wl
		fmt.Printf("  exec=%.2f create=%.2f scale=%.2f\n", h.execSec, h.createSec, h.tuner.Bandit().rewardScale)
	}
}
