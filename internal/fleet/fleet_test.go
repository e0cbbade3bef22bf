package fleet

import (
	"encoding/json"
	"math"
	"testing"

	"dbabandits/internal/env"
)

// TestFleetDeterministicAcrossParallelism is the fleet's core contract
// (and the ISSUE acceptance bar): a fleet of >= 8 heterogeneous
// tenants — mixed benchmarks, regimes and scale factors — produces a
// byte-identical Result at any tenant-level parallelism. Every tenant is a self-contained
// cell-seeded environment, so scheduling order must not leak into any
// number.
func TestFleetDeterministicAcrossParallelism(t *testing.T) {
	tenants := DefaultFleet(8, 3, 500)

	run := func(parallel int) []byte {
		res, err := Run(tenants, Options{BaseSeed: 7, Parallel: parallel})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		if errs := res.Errs(); len(errs) != 0 {
			t.Fatalf("parallel=%d: tenant failures: %v", parallel, errs)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("parallel=%d: marshal: %v", parallel, err)
		}
		return raw
	}

	serial := run(1)
	wide := run(4)
	if string(serial) != string(wide) {
		t.Fatal("fleet results differ between -parallel 1 and -parallel 4")
	}

	// The same fleet is also sane: the last quarter is admitted, every
	// admitted tenant found a donor (every benchmark in the default
	// fleet shares at least some columns via its cycle partner), and the
	// percentile summaries are populated.
	var res Result
	if err := json.Unmarshal(serial, &res); err != nil {
		t.Fatal(err)
	}
	var admitted int
	for i := range res.Tenants {
		tr := &res.Tenants[i]
		if !tr.Spec.Admitted {
			if tr.Donor != "" || tr.Control != nil {
				t.Fatalf("incumbent %s has donor %q / control run", tr.Spec.ID, tr.Donor)
			}
			continue
		}
		admitted++
		if tr.Control == nil {
			t.Fatalf("admitted tenant %s has no cold-start control", tr.Spec.ID)
		}
		if tr.Donor == "" || tr.Similarity <= 0 {
			t.Fatalf("admitted tenant %s found no donor (similarity %v)", tr.Spec.ID, tr.Similarity)
		}
	}
	if admitted != 2 {
		t.Fatalf("DefaultFleet(8) admitted %d tenants, want 2", admitted)
	}
	rc := res.RoundCost()
	if !(rc.P50 > 0 && rc.P50 <= rc.P95 && rc.P95 <= rc.P99) {
		t.Fatalf("round-cost percentiles not ordered/positive: %+v", rc)
	}
}

// TestFleetTransferBeatsColdStart pins the cross-tenant warm start
// doing its job: a newly admitted tenant that is schema-identical to a
// trained incumbent transfers the incumbent's posterior and accrues no
// more early-round regret than its own cold-start control over the
// identical environment. The configuration is deterministic (fixed
// base seed), so the margin is pinned, not sampled.
func TestFleetTransferBeatsColdStart(t *testing.T) {
	tenants := []TenantSpec{
		{ID: "donor", Benchmark: "ssb", Regime: env.Static, ScaleFactor: 10, Rounds: 15, MaxStoredRows: 1200},
		{ID: "newbie", Benchmark: "ssb", Regime: env.Static, ScaleFactor: 10, Rounds: 10, MaxStoredRows: 1200, Admitted: true},
	}
	res, err := Run(tenants, Options{BaseSeed: 2, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if errs := res.Errs(); len(errs) != 0 {
		t.Fatalf("tenant failures: %v", errs)
	}
	tr := &res.Tenants[1]
	if tr.Donor != "donor" {
		t.Fatalf("admitted tenant transferred from %q, want %q", tr.Donor, "donor")
	}
	if tr.Similarity != 1 {
		t.Fatalf("schema-identical donor similarity = %v, want 1", tr.Similarity)
	}
	for _, k := range []int{5, 10} {
		warm, cold := tr.EarlyRoundRegret(k), tr.ControlEarlyRoundRegret(k)
		if warm > cold {
			t.Fatalf("first %d rounds: warm-started regret %.3f exceeds cold-start control %.3f",
				k, warm, cold)
		}
	}
	if b := tr.TransferBenefit(10); b <= 0 {
		t.Fatalf("transfer benefit %.3f over the full run, want positive", b)
	}
}

// TestFleetTransferDisabled: under a policy other than mab the admitted
// tenant runs cold, reports no donor, and its "warm" run equals its
// control — the topology without the learning.
func TestFleetTransferDisabled(t *testing.T) {
	tenants := []TenantSpec{
		{ID: "a", Benchmark: "ssb", Regime: env.Static, Rounds: 3, MaxStoredRows: 400},
		{ID: "b", Benchmark: "ssb", Regime: env.Static, Rounds: 3, MaxStoredRows: 400, Admitted: true},
	}
	res, err := Run(tenants, Options{BaseSeed: 1, Policy: env.PDTool, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if errs := res.Errs(); len(errs) != 0 {
		t.Fatalf("tenant failures: %v", errs)
	}
	tr := &res.Tenants[1]
	if tr.Donor != "" {
		t.Fatalf("pdtool tenant recorded donor %q", tr.Donor)
	}
	if tr.Control == nil {
		t.Fatal("control run missing without transfer")
	}
	_, _, _, got := tr.Run.Totals()
	_, _, _, want := tr.Control.Totals()
	if got != want {
		t.Fatalf("cold 'warm' run total %v differs from control total %v", got, want)
	}
	if b := tr.TransferBenefit(3); b != 0 {
		t.Fatalf("transfer benefit %v without transfer, want 0", b)
	}
}

// TestFleetValidation pins the spec-level error paths.
func TestFleetValidation(t *testing.T) {
	if _, err := Run(nil, Options{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	for _, n := range []int{0, -2} {
		if _, err := Run(DefaultFleet(n, 1, 100), Options{}); err == nil {
			t.Fatalf("DefaultFleet(%d) ran", n)
		}
	}
	if _, err := Run([]TenantSpec{{Benchmark: "ssb"}}, Options{}); err == nil {
		t.Fatal("tenant with empty ID accepted")
	}
	dup := []TenantSpec{
		{ID: "x", Benchmark: "ssb", Regime: env.Static},
		{ID: "x", Benchmark: "tpch", Regime: env.Static},
	}
	if _, err := Run(dup, Options{}); err == nil {
		t.Fatal("duplicate tenant ID accepted")
	}
}

// TestDefaultFleet pins the generator's heterogeneity: unique IDs,
// mixed benchmarks/regimes/scale factors, last quarter admitted.
func TestDefaultFleet(t *testing.T) {
	tenants := DefaultFleet(8, 5, 1000)
	if len(tenants) != 8 {
		t.Fatalf("got %d tenants, want 8", len(tenants))
	}
	ids := map[string]bool{}
	benches := map[string]bool{}
	regimes := map[env.Regime]bool{}
	sfs := map[float64]bool{}
	var admitted int
	for i, tn := range tenants {
		if tn.ID == "" || ids[tn.ID] {
			t.Fatalf("tenant %d: empty or duplicate ID %q", i, tn.ID)
		}
		ids[tn.ID] = true
		benches[tn.Benchmark] = true
		regimes[tn.Regime] = true
		sfs[tn.ScaleFactor] = true
		if tn.Admitted {
			admitted++
			if i < 6 {
				t.Fatalf("tenant %d admitted; only the last quarter should be", i)
			}
		}
	}
	if len(benches) < 4 || len(regimes) != 4 || len(sfs) != 2 {
		t.Fatalf("fleet not heterogeneous: %d benchmarks, %d regimes, %d scale factors",
			len(benches), len(regimes), len(sfs))
	}
	if admitted != 2 {
		t.Fatalf("admitted %d tenants, want 2", admitted)
	}
	// Tiny fleets have no admission: nobody to transfer from.
	for _, tn := range DefaultFleet(3, 1, 100) {
		if tn.Admitted {
			t.Fatalf("fleet of 3 admitted tenant %s", tn.ID)
		}
	}
}

// TestPercentiles pins the interpolation convention against hand
// values.
func TestPercentiles(t *testing.T) {
	p := percentilesOf([]float64{4, 1, 3, 2}) // sorted: 1 2 3 4
	if p.P50 != 2.5 {
		t.Fatalf("p50 = %v, want 2.5", p.P50)
	}
	if math.Abs(p.P95-3.85) > 1e-9 || math.Abs(p.P99-3.97) > 1e-9 {
		t.Fatalf("p95/p99 = %v/%v, want 3.85/3.97", p.P95, p.P99)
	}
	if z := percentilesOf(nil); z != (Percentiles{}) {
		t.Fatalf("empty input: %+v, want zero", z)
	}
}
