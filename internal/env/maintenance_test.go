package env

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"dbabandits/internal/index"
	"dbabandits/internal/policy"
	"dbabandits/internal/query"
	"dbabandits/internal/workload"
)

func htapEnv(t *testing.T, rounds int) *Environment {
	t.Helper()
	e, err := New(Options{
		Benchmark:     "ssb",
		Regime:        HTAP,
		ScaleFactor:   10,
		MaxStoredRows: 2000,
		Rounds:        rounds,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestMaintenanceCostPerIndexAdditivity pins the accounting identities of
// MaintenanceCost over every update round of an HTAP run: the returned
// total equals the sum of the per-index charges, and the cost of a
// configuration equals the sum of the costs of its indexes priced alone
// (maintenance is per-index work, so it must be exactly additive).
// Indexes on untouched tables and update-free rounds must charge zero.
func TestMaintenanceCostPerIndexAdditivity(t *testing.T) {
	e := htapEnv(t, 10)
	cfg := index.NewConfig()
	cfg.Add(index.New("lineorder", []string{"lo_orderdate"}, nil))
	cfg.Add(index.New("lineorder", []string{"lo_custkey", "lo_orderdate"}, nil))
	cfg.Add(index.New("lineorder", []string{"lo_partkey"}, []string{"lo_revenue"}))
	cfg.Add(index.New("customer", []string{"c_city"}, nil))

	var sawCharge bool
	for r := 1; r <= e.Seq.Rounds(); r++ {
		updates := e.UpdatesAt(r)
		per, total := e.MaintenanceCost(updates, cfg)
		if len(updates) == 0 {
			if total != 0 || len(per) != 0 {
				t.Fatalf("round %d: zero-update round charged %v / %v", r, total, per)
			}
			continue
		}
		// The total is defined as the per-index sum in sorted-id order
		// (deterministic float accumulation); summing that way must
		// reproduce it exactly.
		ids := make([]string, 0, len(per))
		for id := range per {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		var sum float64
		for _, id := range ids {
			sum += per[id]
		}
		if sum != total {
			t.Fatalf("round %d: total %v != per-index sum %v", r, total, sum)
		}
		// Per-index additivity, exact in floating point: each index's
		// charge is computed independently, so pricing singleton
		// configurations must reproduce the per map term by term.
		for _, ix := range cfg.All() {
			single := index.NewConfig()
			single.Add(ix)
			perOne, totalOne := e.MaintenanceCost(updates, single)
			if perOne[ix.ID()] != per[ix.ID()] || totalOne != per[ix.ID()] {
				t.Fatalf("round %d: %s priced %v alone vs %v in the set",
					r, ix.ID(), totalOne, per[ix.ID()])
			}
		}
		// The customer dimension is never a fact table, so its index
		// must never pay.
		for id, sec := range per {
			if sec > 0 {
				sawCharge = true
			}
			if id == "customer(c_city)" && sec != 0 {
				t.Fatalf("round %d: dimension-table index charged %v", r, sec)
			}
		}
	}
	if !sawCharge {
		t.Fatal("no update round charged any index over 10 rounds")
	}
	if _, total := e.MaintenanceCost(e.UpdatesAt(2), index.NewConfig()); total != 0 {
		t.Fatal("empty configuration charged maintenance")
	}
}

// TestMaintenanceCostMatchesCostModel recomputes one round's charges
// from first principles — per statement, per touched index, through
// engine.IndexWriteSec — and requires exact agreement with
// MaintenanceCost.
func TestMaintenanceCostMatchesCostModel(t *testing.T) {
	e := htapEnv(t, 4)
	cfg := index.NewConfig()
	cfg.Add(index.New("lineorder", []string{"lo_orderdate"}, nil))
	cfg.Add(index.New("lineorder", []string{"lo_suppkey"}, nil))
	updates := e.UpdatesAt(2)
	if len(updates) == 0 {
		t.Fatal("round 2 must carry updates under the default cadence")
	}
	per, total := e.MaintenanceCost(updates, cfg)

	want := map[string]float64{}
	for _, u := range updates {
		meta, ok := e.Schema.Table(u.Table)
		if !ok {
			continue
		}
		for _, ix := range cfg.OnTable(u.Table) {
			if !u.Touches(ix.AllColumns()) {
				continue
			}
			entries := u.Rows
			if u.Kind == query.UpdateModify {
				entries *= 2
			}
			want[ix.ID()] += e.CM.IndexWriteSec(entries, float64(ix.EntryWidthBytes(meta)), e.CM.PagesOf(ix.SizeBytes(meta)))
		}
	}
	ids := make([]string, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var wantTotal float64
	for _, id := range ids {
		wantTotal += want[id]
	}
	if total != wantTotal {
		t.Fatalf("total = %v, want %v", total, wantTotal)
	}
	for id, sec := range want {
		if per[id] != sec {
			t.Fatalf("%s = %v, want %v", id, per[id], sec)
		}
	}
}

// TestRunPolicyChargesMaintenanceExactly replays a scripted run's
// configuration trajectory outside the driver and checks that every
// round's recorded MaintenanceSec equals an independent MaintenanceCost
// computation — i.e. the driver charges each round exactly the sum over
// the held indexes of that round's write costs, nothing more.
func TestRunPolicyChargesMaintenanceExactly(t *testing.T) {
	e := htapEnv(t, 8)
	ix := index.New("lineorder", []string{"lo_orderdate"}, nil)
	p := &scriptedPolicy{env: e, ix: ix}
	res, err := e.RunPolicy(p)
	if err != nil {
		t.Fatal(err)
	}
	cfgByRound := func(r int) *index.Config {
		cfg := index.NewConfig()
		if r >= 2 { // the script materialises ix in round 2 and holds it
			cfg.Add(ix)
		}
		return cfg
	}
	var total float64
	for _, rr := range res.Rounds {
		_, want := e.MaintenanceCost(e.UpdatesAt(rr.Round), cfgByRound(rr.Round))
		if rr.MaintenanceSec != want {
			t.Fatalf("round %d: charged %v, want %v", rr.Round, rr.MaintenanceSec, want)
		}
		if len(e.UpdatesAt(rr.Round)) != rr.NumUpdates {
			t.Fatalf("round %d: NumUpdates %d != sequencer's %d",
				rr.Round, rr.NumUpdates, len(e.UpdatesAt(rr.Round)))
		}
		total += rr.MaintenanceSec
	}
	if total <= 0 {
		t.Fatal("holding an index on the fact table must accrue maintenance")
	}
	if got := res.MaintenanceTotal(); math.Abs(got-total) > 1e-12 {
		t.Fatalf("MaintenanceTotal %v != per-round sum %v", got, total)
	}
	rec, create, exec, grand := res.Totals()
	if grand != rec+create+exec+res.MaintenanceTotal() {
		t.Fatalf("Totals' grand total %v does not include maintenance", grand)
	}
}

// TestHTAPWithoutUpdatesIsBitIdenticalToStaticGolden is the zero-update
// reduction property: an HTAP environment whose sequencer is seen only
// as a plain workload.Sequencer (the wrapper hides UpdatesAt) must
// reproduce the analytical reward stream EXACTLY — its per-round results
// are compared bit for bit against the pre-HTAP static golden fixtures
// (captured before this regime existed). Any leak of the update path
// into analytical accounting (an extra context dimension, a spurious
// charge, a perturbed RNG draw) breaks byte equality here.
func TestHTAPWithoutUpdatesIsBitIdenticalToStaticGolden(t *testing.T) {
	for _, kind := range []TunerKind{NoIndex, PDTool, MAB} {
		e := htapEnv(t, 5)
		e.Seq = struct{ workload.Sequencer }{e.Seq}
		p, err := policy.New(string(kind), e, e.policyParams())
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RunPolicy(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(res.Rounds)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join("testdata", "golden_"+string(kind)+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var golden RunResult
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(golden.Rounds)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: zero-update HTAP rounds diverge from the pre-change static golden\n got: %s\nwant: %s", kind, got, want)
		}
	}
}

// TestMABBeatsRandomOnStaticTPCDS pins the sanity floor the random
// control exists for: on the static TPC-DS workload the bandit must
// finish with a cheaper total than a random configuration draw.
func TestMABBeatsRandomOnStaticTPCDS(t *testing.T) {
	e, err := New(Options{
		Benchmark:     "tpcds",
		Regime:        Static,
		ScaleFactor:   10,
		MaxStoredRows: 1500,
		Rounds:        6,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := e.Run(RandomConfig)
	if err != nil {
		t.Fatal(err)
	}
	mab, err := e.Run(MAB)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, rndTotal := rnd.Totals()
	_, _, _, mabTotal := mab.Totals()
	if mabTotal >= rndTotal {
		t.Fatalf("MAB total %v not better than the random control's %v", mabTotal, rndTotal)
	}
	if mab.FinalRoundExecSec() >= rnd.FinalRoundExecSec() {
		t.Fatalf("MAB final round %v not better than the random control's %v",
			mab.FinalRoundExecSec(), rnd.FinalRoundExecSec())
	}
}
