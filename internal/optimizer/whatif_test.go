package optimizer

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dbabandits/internal/datagen"
	"dbabandits/internal/engine"
	"dbabandits/internal/index"
	"dbabandits/internal/mab"
	"dbabandits/internal/workload"
)

// TestWhatIfMonotoneOnBenchmarks is a metamorphic property test over the
// real templates of all five benchmarks: adding one index to a
// configuration never raises a query's what-if cost, and never changes
// its executed output cardinality (OutRows) or, beyond rounding, its
// estimated one. Every cached plan is also pinned to the uncached
// reference. For each of seeds 1–3 it prices rounds 1–2 of the static
// regime at 1000 stored rows under 10 random subsets of the round's
// generated arms, each against the subset plus one more arm. Exact
// what-if call skipping relies on the monotonicity; the OutRows
// invariant is what makes executed costs of two configurations
// comparable at all.
func TestWhatIfMonotoneOnBenchmarks(t *testing.T) {
	cm := engine.DefaultCostModel()
	pairs := 0
	for _, name := range workload.AllNames() {
		for seed := int64(1); seed <= 3; seed++ {
			bench, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			schema := bench.NewSchema()
			db, err := datagen.Build(schema, datagen.Options{ScaleFactor: 10, MaxStoredRows: 1000, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			cached, ref := New(schema, cm), NewUncached(schema, cm)
			gen := mab.NewArmGenerator(schema)
			seq := workload.NewStatic(bench, db, seed, 2)
			rng := rand.New(rand.NewSource(seed))
			for r := 1; r <= 2; r++ {
				qs := seq.Round(r)
				arms := gen.Generate(qs)
				for k := 0; k < 10; k++ {
					base := index.NewConfig()
					var rest []*index.Index
					for _, a := range arms {
						if rng.Intn(8) == 0 {
							base.Add(a.Index)
						} else {
							rest = append(rest, a.Index)
						}
					}
					if len(rest) == 0 {
						continue
					}
					extra := rest[rng.Intn(len(rest))]
					grown := base.Clone()
					grown.Add(extra)
					for _, q := range qs {
						var plans [2]*engine.Plan
						var out [2]float64
						for side, cfg := range []*index.Config{base, grown} {
							plan, err := cached.ChoosePlan(q, cfg)
							if err != nil {
								t.Fatalf("%s seed %d round %d q%d: %v", name, seed, r, q.TemplateID, err)
							}
							want, err := ref.ChoosePlan(q, cfg)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(plan, want) {
								t.Fatalf("%s seed %d round %d q%d: cached plan\n%+v\ndiffers from uncached\n%+v",
									name, seed, r, q.TemplateID, plan, want)
							}
							st, err := engine.Execute(db, plan, cm)
							if err != nil {
								t.Fatal(err)
							}
							plans[side], out[side] = plan, st.OutRows
						}
						if plans[1].EstCost > plans[0].EstCost {
							t.Errorf("%s seed %d round %d q%d: adding %s raised the what-if cost %v → %v",
								name, seed, r, q.TemplateID, extra.ID(), plans[0].EstCost, plans[1].EstCost)
						}
						// The estimate is a product taken in join order, so
						// a new order may move its last bits.
						if math.Abs(plans[1].EstRows-plans[0].EstRows) > 1e-12*plans[0].EstRows || out[1] != out[0] {
							t.Errorf("%s seed %d round %d q%d: adding %s changed output rows: est %v → %v, executed %v → %v",
								name, seed, r, q.TemplateID, extra.ID(), plans[0].EstRows, plans[1].EstRows, out[0], out[1])
						}
						pairs++
					}
				}
			}
		}
	}
	if pairs < 10000 {
		t.Fatalf("checked only %d (query, configuration) pairs", pairs)
	}
}
