package harness

import (
	"fmt"
	"os"
	"testing"

	"dbabandits/internal/engine"
	"dbabandits/internal/env"
	"dbabandits/internal/index"
)

// TestProbePlans inspects optimiser plan choices under hand-built
// configurations; enable with HARNESS_PLANS=1.
func TestProbePlans(t *testing.T) {
	if os.Getenv("HARNESS_PLANS") == "" {
		t.Skip("set HARNESS_PLANS=1 to run")
	}
	e := smallExperiment(t, env.Static, 3)
	wl := e.Seq.Round(1)

	ideal := index.NewConfig()
	ideal.Add(index.New("lineorder", []string{"lo_orderdate", "lo_partkey", "lo_suppkey"}, []string{"lo_revenue", "lo_quantity", "lo_discount", "lo_custkey", "lo_supplycost"}))
	ideal.Add(index.New("lineorder", []string{"lo_partkey", "lo_orderdate", "lo_suppkey"}, []string{"lo_revenue", "lo_quantity", "lo_discount", "lo_custkey", "lo_supplycost"}))
	ideal.Add(index.New("lineorder", []string{"lo_custkey", "lo_orderdate", "lo_suppkey"}, []string{"lo_revenue", "lo_quantity", "lo_discount", "lo_partkey", "lo_supplycost"}))
	ideal.Add(index.New("lineorder", []string{"lo_suppkey", "lo_orderdate"}, []string{"lo_revenue", "lo_quantity", "lo_discount", "lo_partkey", "lo_custkey", "lo_supplycost"}))

	for _, cfgPair := range []struct {
		name string
		cfg  *index.Config
	}{{"none", index.NewConfig()}, {"ideal", ideal}} {
		var total float64
		for _, q := range wl {
			plan, err := e.Opt.ChoosePlan(q, cfgPair.cfg)
			if err != nil {
				t.Fatal(err)
			}
			st, err := engine.Execute(e.DB, plan, e.CM)
			if err != nil {
				t.Fatal(err)
			}
			total += st.TotalSec
			fmt.Printf("[%s] q%-3d est=%8.2f true=%8.2f  %s\n", cfgPair.name, q.TemplateID, plan.EstCost, st.TotalSec, plan)
		}
		fmt.Printf("[%s] TOTAL true exec = %.1f\n\n", cfgPair.name, total)
	}
}
