package mab

import (
	"testing"

	"dbabandits/internal/engine"
	"dbabandits/internal/index"
	"dbabandits/internal/linalg"
	"dbabandits/internal/query"
	"dbabandits/internal/testdb"
)

// TestContextBuilderUpdateDims pins the HTAP context extension: the two
// update-sensitivity dimensions exist only when UpdateDims is set, sit
// above the derived part, and analytical builders ignore ArmInfo.Churn
// entirely (so analytical contexts stay bit-identical).
func TestContextBuilderUpdateDims(t *testing.T) {
	schema := testdb.Schema()
	plain := NewContextBuilder(schema)
	aware := NewContextBuilder(schema)
	aware.UpdateDims = true
	if aware.Dim() != plain.Dim()+2 {
		t.Fatalf("update-aware dim = %d, want %d", aware.Dim(), plain.Dim()+2)
	}

	arm := &Arm{
		Index:     index.New("orders", []string{"o_date"}, nil),
		Table:     "orders",
		SizeBytes: 1 << 20,
	}
	info := ArmInfo{
		PredicateColumns: map[query.ColumnRef]bool{{Table: "orders", Column: "o_date"}: true},
		DatabaseBytes:    1 << 24,
		Churn:            0.125,
	}

	base := aware.Dim() - 2
	x := aware.Build(arm, info)
	got := map[int]float64{}
	for i, idx := range x.Idx {
		got[idx] = x.Val[i]
	}
	if got[base] != 0.125 {
		t.Fatalf("churn component = %v, want 0.125", got[base])
	}
	wantWeighted := 0.125 * float64(arm.SizeBytes) / float64(info.DatabaseBytes)
	if got[base+1] != wantWeighted {
		t.Fatalf("size-weighted churn = %v, want %v", got[base+1], wantWeighted)
	}

	// Zero churn leaves both components absent (sparse zeros).
	info.Churn = 0
	for _, idx := range aware.Build(arm, info).Idx {
		if idx >= base {
			t.Fatalf("zero-churn context carries update dim %d", idx)
		}
	}

	// An analytical builder ignores Churn and keeps the original dim.
	info.Churn = 0.5
	y := plain.Build(arm, info)
	if y.Dim != plain.Dim() {
		t.Fatalf("analytical context dim = %d, want %d", y.Dim, plain.Dim())
	}
	for _, idx := range y.Idx {
		if idx >= plain.Dim() {
			t.Fatalf("analytical context carries out-of-range dim %d", idx)
		}
	}
}

// TestTunerChurnStatistics drives ObserveUpdates directly: INSERT volume
// accrues to the table (every index pays), UPDATE volume to the written
// columns only, both decaying per round.
func TestTunerChurnStatistics(t *testing.T) {
	schema, db := testdb.BuildScaled(1, 1, 20000)
	tuner := NewTuner(schema, db.DataSizeBytes(), TunerOptions{
		MemoryBudgetBytes:  db.DataSizeBytes(),
		UpdateAwareContext: true,
	})
	rows := float64(schema.MustTable("orders").RowCount)

	// Power-of-two fractions keep every expectation exact in floats.
	tuner.ObserveUpdates([]query.Update{
		{Table: "orders", Kind: query.UpdateInsert, Rows: rows / 8},
		{Table: "orders", Kind: query.UpdateModify, Rows: rows / 16, Columns: []string{"o_total"}},
	}, nil)

	dateArm := &Arm{Index: index.New("orders", []string{"o_date"}, nil), Table: "orders"}
	totalArm := &Arm{Index: index.New("orders", []string{"o_total"}, nil), Table: "orders"}
	custArm := &Arm{Index: index.New("customer", []string{"c_nation"}, nil), Table: "customer"}

	if got := tuner.armChurn(dateArm); got != 0.125 {
		t.Fatalf("insert-only exposure = %v, want 0.125", got)
	}
	if got := tuner.armChurn(totalArm); got != 0.125+0.0625 {
		t.Fatalf("insert+update exposure = %v, want 0.1875", got)
	}
	if got := tuner.armChurn(custArm); got != 0 {
		t.Fatalf("untouched table exposure = %v, want 0", got)
	}

	// A quiet round decays both statistics by churnDecay (0.5).
	tuner.ObserveUpdates(nil, nil)
	if got := tuner.armChurn(totalArm); got != 0.09375 {
		t.Fatalf("decayed exposure = %v, want 0.09375", got)
	}
}

// TestTunerMaintenanceChargedToReward runs two identical tuners through
// an identical round; one is charged maintenance on its selected arms.
// The charged tuner's learned expected score for those arms must drop
// below the uncharged one's — maintenance reaches the bandit's reward.
func TestTunerMaintenanceChargedToReward(t *testing.T) {
	run := func(maintSec float64) float64 {
		h := newMiniHarness(t, TunerOptions{UpdateAwareContext: true})
		h.round(t, selectiveWorkload(1)) // round 1: observe, empty config

		rec := h.tuner.Recommend(h.lastWorkload)
		if rec.Config.Len() == 0 {
			t.Fatal("round 2 selected nothing")
		}
		// Snapshot the contexts the bandit is about to be updated with.
		contexts := append([]linalg.SparseVector(nil), h.tuner.pendingContexts...)

		perMaint := map[string]float64{}
		for _, id := range rec.Config.IDs() {
			perMaint[id] = maintSec
		}
		h.tuner.ObserveUpdates([]query.Update{
			{Table: "orders", Kind: query.UpdateInsert, Rows: 100},
		}, perMaint)

		creation := map[string]float64{}
		for _, ix := range rec.ToCreate {
			meta := h.schema.MustTable(ix.Table)
			creation[ix.ID()] = h.cm.IndexBuildSec(meta, ix.SizeBytes(meta))
		}
		var stats []*engine.ExecStats
		for _, q := range selectiveWorkload(2) {
			plan, err := h.opt.ChoosePlan(q, rec.Config)
			if err != nil {
				t.Fatalf("plan: %v", err)
			}
			st, err := engine.Execute(h.db, plan, h.cm)
			if err != nil {
				t.Fatalf("execute: %v", err)
			}
			stats = append(stats, st)
		}
		h.tuner.ObserveExecution(stats, creation)
		if h.tuner.pendingMaint != nil {
			t.Fatal("pending maintenance not cleared after the observation")
		}

		var sum float64
		for _, s := range pointEstimates(h.tuner.Bandit(), contexts) {
			sum += s
		}
		return sum
	}
	unchargedScore := run(0)
	chargedScore := run(500)
	if chargedScore >= unchargedScore {
		t.Fatalf("maintenance-charged expected score %v not below uncharged %v",
			chargedScore, unchargedScore)
	}
}
