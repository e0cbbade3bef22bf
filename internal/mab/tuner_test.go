package mab

import (
	"testing"

	"dbabandits/internal/catalog"
	"dbabandits/internal/engine"
	"dbabandits/internal/linalg"
	"dbabandits/internal/optimizer"
	"dbabandits/internal/query"
	"dbabandits/internal/storage"
	"dbabandits/internal/testdb"
)

// miniHarness runs the full MAB loop against the fixture database: this
// is the same wiring the experiment harness uses.
type miniHarness struct {
	schema *catalog.Schema
	db     *storage.Database
	cm     *engine.CostModel
	opt    *optimizer.Optimizer
	tuner  *Tuner

	lastWorkload []*query.Query
	execSec      float64 // last round's execution time
	createSec    float64 // last round's creation time
}

func newMiniHarness(t *testing.T, opts TunerOptions) *miniHarness {
	t.Helper()
	schema, db := testdb.BuildScaled(1, 1000, 20000)
	cm := engine.DefaultCostModel()
	if opts.MemoryBudgetBytes == 0 {
		opts.MemoryBudgetBytes = db.DataSizeBytes()
	}
	return &miniHarness{
		schema: schema,
		db:     db,
		cm:     cm,
		opt:    optimizer.New(schema, cm),
		tuner:  NewTuner(schema, db.DataSizeBytes(), opts),
	}
}

// round executes one tuning round over the given workload and returns the
// total round time (creation + execution).
func (h *miniHarness) round(t *testing.T, workload []*query.Query) float64 {
	t.Helper()
	rec := h.tuner.Recommend(h.lastWorkload)
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
	for _, q := range workload {
		plan, err := h.opt.ChoosePlan(q, rec.Config)
		if err != nil {
			t.Fatalf("plan: %v", err)
		}
		st, err := engine.Execute(h.db, plan, h.cm)
		if err != nil {
			t.Fatalf("execute: %v", err)
		}
		stats = append(stats, st)
		h.execSec += st.TotalSec
	}
	h.tuner.ObserveExecution(stats, creation)
	h.lastWorkload = workload
	return h.createSec + h.execSec
}

// noIndexSec measures the workload under an empty configuration.
func (h *miniHarness) noIndexSec(t *testing.T, workload []*query.Query) float64 {
	t.Helper()
	var total float64
	for _, q := range workload {
		plan, err := h.opt.ChoosePlan(q, nil)
		if err != nil {
			t.Fatalf("plan: %v", err)
		}
		st, err := engine.Execute(h.db, plan, h.cm)
		if err != nil {
			t.Fatalf("execute: %v", err)
		}
		total += st.TotalSec
	}
	return total
}

func selectiveWorkload(round int) []*query.Query {
	// One selective equality template plus a join template, re-instantiated
	// per round with shifting constants (same signature).
	lo := int64(round % 1500)
	return []*query.Query{
		{
			TemplateID: 1,
			Tables:     []string{"orders"},
			Filters: []query.Predicate{
				{Table: "orders", Column: "o_date", Op: query.OpEq, Lo: lo, Hi: lo},
			},
			Payload: []query.ColumnRef{{Table: "orders", Column: "o_total"}},
		},
		{
			TemplateID: 2,
			Tables:     []string{"orders", "customer"},
			Filters: []query.Predicate{
				{Table: "customer", Column: "c_nation", Op: query.OpEq, Lo: int64(round % 25), Hi: int64(round % 25)},
				{Table: "orders", Column: "o_date", Op: query.OpRange, Lo: lo, Hi: lo + 40},
			},
			Joins: []query.Join{
				{LeftTable: "orders", LeftColumn: "o_custkey", RightTable: "customer", RightColumn: "c_id"},
			},
			Payload: []query.ColumnRef{{Table: "orders", Column: "o_total"}},
		},
	}
}

func TestTunerColdStartEmptyConfig(t *testing.T) {
	h := newMiniHarness(t, TunerOptions{})
	rec := h.tuner.Recommend(nil)
	if rec.Config.Len() != 0 {
		t.Fatalf("cold-start config has %d indexes", rec.Config.Len())
	}
	if rec.NumArms != 0 {
		t.Fatalf("cold-start arms = %d", rec.NumArms)
	}
	if rec.RecommendSec <= 0 {
		t.Fatal("first-round recommendation time should include setup cost")
	}
}

func TestTunerConvergesAndBeatsNoIndex(t *testing.T) {
	h := newMiniHarness(t, TunerOptions{})
	var lastExec float64
	for round := 1; round <= 12; round++ {
		h.round(t, selectiveWorkload(round))
		lastExec = h.execSec
	}
	base := h.noIndexSec(t, selectiveWorkload(12))
	if lastExec >= base*0.7 {
		t.Fatalf("MAB final-round execution %.3fs not clearly better than NoIndex %.3fs", lastExec, base)
	}
	if h.tuner.Config().Len() == 0 {
		t.Fatal("tuner converged to an empty configuration")
	}
}

func TestTunerRespectsMemoryBudget(t *testing.T) {
	schema, db := testdb.BuildScaled(1, 1000, 20000)
	budget := db.DataSizeBytes() / 20
	h := newMiniHarness(t, TunerOptions{MemoryBudgetBytes: budget})
	h.schema = schema
	for round := 1; round <= 6; round++ {
		h.round(t, selectiveWorkload(round))
		var got int64
		for _, ix := range h.tuner.Config().All() {
			got += ix.SizeBytes(h.schema.MustTable(ix.Table))
		}
		if got > budget {
			t.Fatalf("round %d config size %d exceeds budget %d", round, got, budget)
		}
	}
}

func TestTunerConfigStabilises(t *testing.T) {
	h := newMiniHarness(t, TunerOptions{})
	var changes int
	prev := ""
	for round := 1; round <= 15; round++ {
		h.round(t, selectiveWorkload(round))
		ids := ""
		for _, id := range h.tuner.Config().IDs() {
			ids += id + ";"
		}
		if round > 8 && ids != prev {
			changes++
		}
		prev = ids
	}
	if changes > 4 {
		t.Fatalf("configuration still oscillating after convergence: %d late changes", changes)
	}
}

func TestTunerForgettingOnShift(t *testing.T) {
	h := newMiniHarness(t, TunerOptions{})
	for round := 1; round <= 6; round++ {
		h.round(t, selectiveWorkload(round))
	}
	// Forgetting discounts V and b together, so theta barely moves; the
	// observable effect is renewed exploration: the confidence width of a
	// well-explored direction must grow back after a shift.
	dense := linalg.NewVector(h.tuner.Bandit().state.Dim)
	for i := range dense {
		dense[i] = 1 // aggregate direction: touches every explored dim
	}
	probe := []linalg.SparseVector{linalg.SparseFromDense(dense)}
	widthBefore := make([]float64, 1)
	h.tuner.Bandit().state.ConfidenceWidthBatch(probe, widthBefore)
	// Completely new workload: shift intensity 1 -> capped forget,
	// inspected right after Recommend (before new observations).
	shifted := []*query.Query{{
		TemplateID: 99,
		Tables:     []string{"part"},
		Filters: []query.Predicate{
			{Table: "part", Column: "p_size", Op: query.OpEq, Lo: 5, Hi: 5},
		},
	}}
	h.tuner.Recommend(shifted)
	widthAfter := make([]float64, 1)
	h.tuner.Bandit().state.ConfidenceWidthBatch(probe, widthAfter)
	if widthAfter[0] <= widthBefore[0] {
		t.Fatalf("shift did not widen exploration: width %v -> %v", widthBefore[0], widthAfter[0])
	}
}

func TestTunerForgettingDisabledAblation(t *testing.T) {
	h := newMiniHarness(t, TunerOptions{})
	h.tuner.disableForgetting = true
	for round := 1; round <= 6; round++ {
		h.round(t, selectiveWorkload(round))
	}
	thetaBefore := sqNorm(h.tuner.Bandit().state.Theta())
	shifted := []*query.Query{{
		TemplateID: 99,
		Tables:     []string{"part"},
		Filters: []query.Predicate{
			{Table: "part", Column: "p_size", Op: query.OpEq, Lo: 5, Hi: 5},
		},
	}}
	h.round(t, shifted)
	thetaAfter := sqNorm(h.tuner.Bandit().state.Theta())
	if thetaAfter < thetaBefore*0.25 {
		t.Fatalf("ablated forgetting still shrank theta: %v -> %v", thetaBefore, thetaAfter)
	}
}

// TestCreationPenaltyAblationIncreasesCreation removes the creation
// term from the rewards: a bandit that is never charged for building an
// index must not spend less on creation than the penalised one.
func TestCreationPenaltyAblationIncreasesCreation(t *testing.T) {
	creation := func(noPenalty bool) float64 {
		h := newMiniHarness(t, TunerOptions{})
		h.tuner.noCreationPenalty = noPenalty
		var total float64
		for round := 1; round <= 8; round++ {
			h.round(t, selectiveWorkload(round))
			total += h.createSec
		}
		return total
	}
	base, free := creation(false), creation(true)
	if free < base {
		t.Fatalf("removing the creation penalty reduced creation spend: %v vs %v", free, base)
	}
}

func TestTunerDropsHarmfulIndexes(t *testing.T) {
	// A workload whose indexes cannot help (full-range scans): any created
	// index earns negative reward (creation cost, no gain) and must be
	// dropped in later rounds.
	h := newMiniHarness(t, TunerOptions{})
	wl := []*query.Query{{
		TemplateID: 5,
		Tables:     []string{"orders"},
		Filters: []query.Predicate{
			{Table: "orders", Column: "o_date", Op: query.OpRange, Lo: 0, Hi: 2000},
		},
	}}
	for round := 1; round <= 10; round++ {
		h.round(t, wl)
	}
	if n := h.tuner.Config().Len(); n > 1 {
		t.Fatalf("useless indexes retained: %d", n)
	}
}

func TestTunerRecommendationTimeModel(t *testing.T) {
	h := newMiniHarness(t, TunerOptions{})
	h.tuner.Recommend(nil)
	rec2 := h.tuner.Recommend(selectiveWorkload(1))
	if rec2.NumArms == 0 {
		t.Fatal("no arms generated from observed workload")
	}
	if rec2.RecommendSec <= 0 {
		t.Fatal("recommendation time model returned non-positive time")
	}
	rec3 := h.tuner.Recommend(selectiveWorkload(2))
	if rec3.RecommendSec > 2 {
		t.Fatalf("continuous recommendation overhead too large: %v", rec3.RecommendSec)
	}
}

func TestTunerToCreateAndToDrop(t *testing.T) {
	h := newMiniHarness(t, TunerOptions{})
	h.round(t, selectiveWorkload(1))
	rec := h.tuner.Recommend(h.lastWorkload)
	// Everything in config but not previously materialised is in ToCreate;
	// sanity: ToCreate ∪ previous ⊇ config.
	for _, ix := range rec.ToCreate {
		if !rec.Config.Has(ix.ID()) {
			t.Fatalf("ToCreate lists %s not in config", ix.ID())
		}
	}
	for _, id := range rec.ToDrop {
		if rec.Config.Has(id) {
			t.Fatalf("ToDrop lists %s still in config", id)
		}
	}
}
