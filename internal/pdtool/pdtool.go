// Package pdtool implements the offline physical-design-tool baseline —
// the stand-in for the commercial tuning advisor the paper compares
// against. Given a representative training workload, it:
//
//  1. generates candidate indexes per query (the same workload-derived
//     candidate space the MAB uses, for a fair comparison),
//  2. estimates each candidate's benefit through the optimiser's
//     "what-if" interface (its sole source of truth — inheriting every
//     uniformity/independence misestimate),
//  3. greedily fills the memory budget with the best
//     benefit-per-iteration candidates, and
//  4. runs an index-merging pass (the paper notes PDTool employs index
//     merging while the MAB framework does not).
//
// Recommendation time is modelled from the number of what-if optimiser
// calls, which is what dominates commercial advisors' running time and
// reproduces Table I's blow-up on large workloads (TPC-DS random).
package pdtool

import (
	"sort"

	"dbabandits/internal/catalog"
	"dbabandits/internal/index"
	"dbabandits/internal/mab"
	"dbabandits/internal/optimizer"
	"dbabandits/internal/query"
)

// Options configure the advisor.
type Options struct {
	// MemoryBudgetBytes bounds the total size of recommended indexes.
	MemoryBudgetBytes int64
	// TimeLimitSec stops the search once the modelled recommendation time
	// exceeds it (0 = unlimited). Mirrors the paper's 1-hour cap for the
	// TPC-DS dynamic random experiment.
	TimeLimitSec float64
}

const (
	// maxGreedyCandidates keeps only the top-K standalone candidates for
	// the combinatorial greedy phase (controls what-if call volume, as
	// commercial tools do with candidate pruning).
	maxGreedyCandidates = 64
	// maxIterations bounds greedy additions.
	maxIterations = 16
	// whatIfSecPerCall converts optimiser invocations into modelled
	// recommendation seconds.
	whatIfSecPerCall = 0.05
)

// Advisor is the offline physical design tool.
type Advisor struct {
	schema *catalog.Schema
	opt    *optimizer.Optimizer
	opts   Options
	gen    *mab.ArmGenerator
	// disableMerging turns off the index-merging pass (an ablation hook
	// set only by this package's tests).
	disableMerging bool
}

// New constructs an advisor.
func New(schema *catalog.Schema, opt *optimizer.Optimizer, opts Options) *Advisor {
	return &Advisor{
		schema: schema,
		opt:    opt,
		opts:   opts,
		gen:    mab.NewArmGenerator(schema),
	}
}

// Recommendation is the advisor's output.
type Recommendation struct {
	Config *index.Config
	// WhatIfCalls counts optimiser invocations; RecommendSec is the
	// modelled recommendation time derived from them.
	WhatIfCalls  int
	RecommendSec float64
	// EstimatedBenefitSec is the optimiser-estimated workload improvement
	// (which may diverge arbitrarily from reality — that is the point).
	EstimatedBenefitSec float64
}

// Recommend runs the advisor on a training workload.
func (a *Advisor) Recommend(training []*query.Query) *Recommendation {
	rec := &Recommendation{Config: index.NewConfig()}
	if len(training) == 0 {
		return rec
	}
	arms := a.gen.Generate(training)
	if len(arms) == 0 {
		return rec
	}

	// Queries indexed by table for relevance pruning.
	queriesByTable := map[string][]*query.Query{}
	for _, q := range training {
		for _, t := range q.Tables {
			queriesByTable[t] = append(queriesByTable[t], q)
		}
	}
	// baseTotal sums the base costs in training order, each query once,
	// so the total (and every merge decision measured against it) does
	// not depend on map iteration order.
	baseCost := map[*query.Query]float64{}
	var baseTotal float64
	for _, q := range training {
		c, err := a.opt.WhatIfCost(q, rec.Config)
		if err != nil {
			continue
		}
		if _, dup := baseCost[q]; !dup {
			baseTotal += c
		}
		baseCost[q] = c
		rec.WhatIfCalls++
	}

	// Standalone benefit pass: each candidate alone against the queries
	// touching its table.
	type scored struct {
		arm     *mab.Arm
		benefit float64
	}
	var ranked []scored
	for _, arm := range arms {
		if arm.SizeBytes > a.opts.MemoryBudgetBytes {
			continue
		}
		cfg := index.NewConfig()
		cfg.Add(arm.Index)
		var benefit float64
		for _, q := range queriesByTable[arm.Table] {
			c, err := a.opt.WhatIfCost(q, cfg)
			if err != nil {
				continue
			}
			rec.WhatIfCalls++
			benefit += baseCost[q] - c
		}
		if a.overTimeLimit(rec) {
			break
		}
		if benefit > 0 {
			ranked = append(ranked, scored{arm: arm, benefit: benefit})
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].benefit != ranked[j].benefit {
			return ranked[i].benefit > ranked[j].benefit
		}
		return ranked[i].arm.ID() < ranked[j].arm.ID()
	})
	if len(ranked) > maxGreedyCandidates {
		ranked = ranked[:maxGreedyCandidates]
	}

	// Combinatorial greedy: add the candidate with the best marginal
	// estimated improvement each iteration.
	curCost := baseTotal
	remaining := a.opts.MemoryBudgetBytes
	for iter := 0; iter < maxIterations && !a.overTimeLimit(rec); iter++ {
		bestIdx := -1
		bestCost := curCost
		for i, cand := range ranked {
			if cand.arm == nil || cand.arm.SizeBytes > remaining {
				continue
			}
			trial := rec.Config.Clone()
			trial.Add(cand.arm.Index)
			cost, calls := a.marginalCost(queriesByTable[cand.arm.Table], rec.Config, trial, curCost)
			rec.WhatIfCalls += calls
			if cost < bestCost {
				bestCost = cost
				bestIdx = i
			}
			if a.overTimeLimit(rec) {
				break
			}
		}
		if bestIdx < 0 {
			break
		}
		pick := ranked[bestIdx].arm
		rec.Config.Add(pick.Index)
		remaining -= pick.SizeBytes
		curCost = bestCost
		ranked[bestIdx].arm = nil // consumed
	}

	if !a.disableMerging {
		a.mergePass(rec, training, &curCost, &remaining)
	}

	rec.EstimatedBenefitSec = baseTotal - curCost
	rec.RecommendSec = float64(rec.WhatIfCalls) * whatIfSecPerCall
	if a.opts.TimeLimitSec > 0 && rec.RecommendSec > a.opts.TimeLimitSec {
		rec.RecommendSec = a.opts.TimeLimitSec
	}
	return rec
}

// marginalCost computes the estimated total workload cost after swapping
// prev for trial: only the affected queries (those touching the trial
// addition's table) can change, so cost = curCost + sum over affected of
// (cost under trial - cost under prev).
func (a *Advisor) marginalCost(affected []*query.Query, prev, trial *index.Config, curCost float64) (float64, int) {
	calls := 0
	cost := curCost
	for _, q := range affected {
		oldC, err := a.opt.WhatIfCost(q, prev)
		if err != nil {
			continue
		}
		newC, err := a.opt.WhatIfCost(q, trial)
		if err != nil {
			continue
		}
		calls += 2
		cost += newC - oldC
	}
	return cost, calls
}

// mergePass tries to merge pairs of recommended indexes on the same table
// into a single wider index when the optimiser estimates no regression
// and the merge frees budget (Chaudhuri & Narasayya, "Index merging").
func (a *Advisor) mergePass(rec *Recommendation, training []*query.Query, curCost *float64, remaining *int64) {
	all := rec.Config.All()
	for i := 0; i < len(all); i++ {
		for j := 0; j < len(all); j++ {
			if i == j || all[i] == nil || all[j] == nil {
				continue
			}
			x, y := all[i], all[j]
			if x.Table != y.Table {
				continue
			}
			merged := mergeIndexes(x, y)
			if merged == nil {
				continue
			}
			meta, ok := a.schema.Table(x.Table)
			if !ok {
				continue
			}
			mergedSize := merged.SizeBytes(meta)
			oldSize := x.SizeBytes(meta) + y.SizeBytes(meta)
			if mergedSize >= oldSize {
				continue
			}
			trial := rec.Config.Clone()
			trial.Drop(x.ID())
			trial.Drop(y.ID())
			trial.Add(merged)
			cost := 0.0
			calls := 0
			for _, q := range training {
				c, err := a.opt.WhatIfCost(q, trial)
				if err != nil {
					continue
				}
				cost += c
				calls++
			}
			rec.WhatIfCalls += calls
			if cost <= *curCost*1.01 { // allow tiny estimated regressions for the space win
				rec.Config = trial
				*remaining += oldSize - mergedSize
				*curCost = cost
				all[i], all[j] = merged, nil
			}
			if a.overTimeLimit(rec) {
				return
			}
		}
	}
}

// mergeIndexes combines two indexes when one's key is a prefix of the
// other's: the merged index keeps the longer key and unions the includes.
func mergeIndexes(x, y *index.Index) *index.Index {
	longer, shorter := x, y
	if len(y.Key) > len(x.Key) {
		longer, shorter = y, x
	}
	for i, k := range shorter.Key {
		if longer.Key[i] != k {
			return nil
		}
	}
	inc := append(append([]string(nil), longer.Include...), shorter.Include...)
	return index.New(longer.Table, longer.Key, inc)
}

func (a *Advisor) overTimeLimit(rec *Recommendation) bool {
	if a.opts.TimeLimitSec <= 0 {
		return false
	}
	return float64(rec.WhatIfCalls)*whatIfSecPerCall >= a.opts.TimeLimitSec
}
