package harness

import (
	"fmt"
	"os"
	"testing"

	"dbabandits/internal/engine"
	"dbabandits/internal/env"
	"dbabandits/internal/index"
	"dbabandits/internal/pdtool"
)

// TestProbePDToolSkew shows PDTool's config and per-query deltas vs
// NoIndex on tpch-skew; enable with HARNESS_PDTOOL_SKEW=1.
func TestProbePDToolSkew(t *testing.T) {
	if os.Getenv("HARNESS_PDTOOL_SKEW") == "" {
		t.Skip("set HARNESS_PDTOOL_SKEW=1 to run")
	}
	e, err := env.New(env.Options{
		Benchmark: "tpch-skew", Regime: env.Static, ScaleFactor: 10,
		MaxStoredRows: 5000, Rounds: 3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	adv := pdtool.New(e.Schema, e.Opt, pdtool.Options{MemoryBudgetBytes: e.Budget})
	training := e.Seq.Round(1)
	rec := adv.Recommend(training)
	fmt.Println("PDTool config:")
	for _, id := range rec.Config.IDs() {
		fmt.Println("  ", id)
	}
	wl := e.Seq.Round(2)
	empty := index.NewConfig()
	for _, q := range wl {
		p0, _ := e.Opt.ChoosePlan(q, empty)
		s0, _ := engine.Execute(e.DB, p0, e.CM)
		p1, _ := e.Opt.ChoosePlan(q, rec.Config)
		s1, _ := engine.Execute(e.DB, p1, e.CM)
		marker := ""
		if s1.TotalSec > s0.TotalSec*1.2 {
			marker = "  <-- REGRESSION"
		}
		fmt.Printf("q%-3d noindex=%8.2f pdtool=%8.2f est=%8.2f%s\n", q.TemplateID, s0.TotalSec, s1.TotalSec, p1.EstCost, marker)
		if marker != "" || s1.TotalSec < s0.TotalSec*0.5 {
			fmt.Printf("     plan: %s\n", p1)
		}
	}
}
