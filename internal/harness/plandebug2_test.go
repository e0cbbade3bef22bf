package harness

import (
	"fmt"
	"os"
	"testing"

	"dbabandits/internal/engine"
	"dbabandits/internal/env"
	"dbabandits/internal/index"
)

// TestProbeTPCHPlans inspects TPC-H plan choices under hand-built
// configurations; enable with HARNESS_TPCH_PLANS=1 (set =skew for the
// skewed variant).
func TestProbeTPCHPlans(t *testing.T) {
	mode := os.Getenv("HARNESS_TPCH_PLANS")
	if mode == "" {
		t.Skip("set HARNESS_TPCH_PLANS=1 to run")
	}
	bench := "tpch"
	if mode == "skew" {
		bench = "tpch-skew"
	}
	e, err := env.New(env.Options{
		Benchmark: bench, Regime: env.Static, ScaleFactor: 10,
		MaxStoredRows: 5000, Rounds: 3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	wl := e.Seq.Round(1)

	ideal := index.NewConfig()
	ideal.Add(index.New("lineitem", []string{"l_partkey"}, []string{"l_extendedprice", "l_discount", "l_quantity", "l_orderkey", "l_suppkey", "l_shipdate"}))
	ideal.Add(index.New("lineitem", []string{"l_orderkey"}, []string{"l_extendedprice", "l_discount", "l_quantity", "l_partkey", "l_suppkey", "l_shipdate", "l_returnflag", "l_commitdate", "l_receiptdate", "l_shipmode"}))
	ideal.Add(index.New("lineitem", []string{"l_suppkey", "l_shipdate"}, []string{"l_extendedprice", "l_discount", "l_quantity", "l_orderkey"}))
	ideal.Add(index.New("lineitem", []string{"l_shipdate"}, []string{"l_extendedprice", "l_discount", "l_quantity"}))
	ideal.Add(index.New("orders", []string{"o_custkey"}, []string{"o_orderdate", "o_totalprice", "o_orderkey", "o_orderpriority", "o_orderstatus", "o_shippriority"}))
	ideal.Add(index.New("orders", []string{"o_orderdate"}, []string{"o_custkey", "o_orderkey", "o_orderpriority", "o_totalprice"}))
	ideal.Add(index.New("partsupp", []string{"ps_partkey"}, []string{"ps_suppkey", "ps_supplycost", "ps_availqty"}))
	ideal.Add(index.New("partsupp", []string{"ps_suppkey"}, []string{"ps_partkey", "ps_supplycost", "ps_availqty"}))
	ideal.Add(index.New("customer", []string{"c_mktsegment"}, []string{"c_custkey", "c_nationkey", "c_acctbal", "c_name"}))
	ideal.Add(index.New("customer", []string{"c_nationkey"}, []string{"c_custkey", "c_acctbal", "c_name"}))
	ideal.Add(index.New("part", []string{"p_brand"}, []string{"p_partkey", "p_type", "p_size", "p_container"}))

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
			if os.Getenv("HARNESS_TPCH_VERBOSE") != "" {
				fmt.Printf("[%s] q%-3d est=%9.2f true=%9.2f  %s\n", cfgPair.name, q.TemplateID, plan.EstCost, st.TotalSec, plan)
			} else {
				fmt.Printf("[%s] q%-3d est=%9.2f true=%9.2f\n", cfgPair.name, q.TemplateID, plan.EstCost, st.TotalSec)
			}
		}
		fmt.Printf("[%s] TOTAL true exec = %.1f\n\n", cfgPair.name, total)
	}
}
