// Package optimizer implements the simulated query optimiser: cardinality
// estimation over single-column statistics under the classic (and
// deliberately retained) uniformity and attribute-value-independence
// assumptions, cost-based access-path and join selection, and the
// "what-if" interface used by the offline physical design tool.
//
// The estimator is *exact in expectation* on uniform, independent columns
// and systematically wrong on skewed or correlated ones — the precise
// failure mode the paper attributes to commercial optimisers (Section I):
// "commercial DBMSs often assume uniform data distributions and attribute
// value independence".
package optimizer

import (
	"dbabandits/internal/catalog"
	"dbabandits/internal/query"
)

// Selectivity estimates the fraction of the table's rows matching one
// predicate using only min/max/NDV statistics and uniformity.
func Selectivity(meta *catalog.Table, p query.Predicate) float64 {
	col, ok := meta.Column(p.Column)
	if !ok {
		return 1
	}
	st := col.Stats
	span := float64(st.Max-st.Min) + 1
	if span <= 0 {
		return 1
	}
	var sel float64
	switch p.Op {
	case query.OpEq:
		if st.NDV <= 0 {
			return 1
		}
		sel = 1 / float64(st.NDV)
	case query.OpRange:
		lo, hi := p.Lo, p.Hi
		if lo < st.Min {
			lo = st.Min
		}
		if hi > st.Max {
			hi = st.Max
		}
		if hi < lo {
			return 0
		}
		sel = (float64(hi-lo) + 1) / span
	case query.OpLt:
		sel = float64(p.Hi-st.Min) / span
	case query.OpGt:
		sel = float64(st.Max-p.Lo) / span
	default:
		sel = 1
	}
	return clamp01(sel)
}

// ConjunctionSelectivity multiplies per-predicate selectivities — the
// attribute-value-independence assumption.
func ConjunctionSelectivity(meta *catalog.Table, preds []query.Predicate) float64 {
	sel := 1.0
	for _, p := range preds {
		if p.Table != meta.Name {
			continue
		}
		sel *= Selectivity(meta, p)
	}
	return clamp01(sel)
}

// EstimateFilteredRows estimates the logical rows of the table surviving
// its local filter predicates.
func EstimateFilteredRows(meta *catalog.Table, preds []query.Predicate) float64 {
	return ConjunctionSelectivity(meta, preds) * float64(meta.RowCount)
}

// JoinCardinality estimates |L join R| with the standard containment
// assumption |L| * |R| / max(ndv(lcol), ndv(rcol)), corrected for the
// sampled statistics: NDVs are computed on the stored sample while row
// counts are logical. The stored sides hold L/mL and R/mR rows, so their
// join yields (L/mL)(R/mR)/maxNDV stored rows, and the engine scales a
// join's output by the larger multiplier. Multiplying by max(mL, mR)
// leaves L*R / (maxNDV * min(mL, mR)): the estimate divides by the
// smaller side's multiplier to match the sampled ground truth.
func JoinCardinality(lRows float64, lMeta *catalog.Table, lCol string,
	rRows float64, rMeta *catalog.Table, rCol string) float64 {
	maxNDV := 1.0
	if c, ok := lMeta.Column(lCol); ok && float64(c.Stats.NDV) > maxNDV {
		maxNDV = float64(c.Stats.NDV)
	}
	if c, ok := rMeta.Column(rCol); ok && float64(c.Stats.NDV) > maxNDV {
		maxNDV = float64(c.Stats.NDV)
	}
	minMult := sampleMult(lMeta)
	if m := sampleMult(rMeta); m < minMult {
		minMult = m
	}
	out := lRows * rRows / (maxNDV * minMult)
	if out < 0 {
		return 0
	}
	return out
}

func sampleMult(meta *catalog.Table) float64 {
	if meta.SampleMult <= 0 {
		return 1
	}
	return meta.SampleMult
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
