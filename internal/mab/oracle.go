package mab

import "sort"

// SelectSuperArm is the greedy alpha-approximation oracle with filtering
// (Section IV, "A greedy oracle for super-arm selection"): arms with
// negative scores are pruned; then selection and filtering alternate until
// the memory budget is exhausted. The filtering step drops arms that no
// longer fit the remaining budget, arms subsumed by an already selected
// arm (prefix matching), and — when a covering arm is selected — every
// other arm motivated solely by the queries it covers.
//
// The knapsack-constrained submodular objective makes this greedy oracle
// a (1 - 1/e)-approximation (Nemhauser et al.), which is what the paper's
// alpha-regret guarantee is stated against.
func SelectSuperArm(arms []*Arm, scores []float64, budgetBytes int64) []*Arm {
	return selectSuperArmScratch(arms, scores, budgetBytes, nil, 0, &oracleScratch{})
}

// oracleCand pairs an arm with its score for the greedy ordering.
type oracleCand struct {
	arm   *Arm
	score float64
}

// oracleScratch is the reusable working memory of one oracle invocation:
// the candidate ordering, the selection list, and the covered-template
// set. A scratch belongs to one caller (the tuner owns one per round
// loop); the selection the scratch variant returns aliases it and is
// valid until the next call with the same scratch.
type oracleScratch struct {
	cands    []oracleCand
	selected []*Arm
	covered  map[int]bool
}

// selectSuperArmScratch is the oracle through caller-owned scratch — the
// recommend loop's warm path — with a creation throttle: when maxNew > 0,
// at most maxNew arms absent from the existing configuration are
// selected per round. Spreading creations across rounds bounds the
// per-round materialisation spike and keeps the semi-bandit credit
// assignment clean (few new arms share each round's reward). The
// returned slice aliases the scratch.
func selectSuperArmScratch(arms []*Arm, scores []float64, budgetBytes int64, existing map[string]bool, maxNew int, s *oracleScratch) []*Arm {
	cands := s.cands[:0]
	for i, a := range arms {
		if scores[i] > 0 {
			cands = append(cands, oracleCand{arm: a, score: scores[i]})
		}
	}
	s.cands = cands
	// Deterministic order: by score descending, id ascending on ties.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].arm.ID() < cands[j].arm.ID()
	})

	selected := s.selected[:0]
	if s.covered == nil {
		s.covered = map[int]bool{}
	}
	coveredTemplates := s.covered
	clear(coveredTemplates)
	remaining := budgetBytes
	newPicks := 0

	for len(cands) > 0 {
		// Selection step: the highest-scored remaining arm (the slice is
		// sorted, so it is the head).
		pick := cands[0].arm
		cands = cands[1:]
		if pick.SizeBytes > remaining {
			continue
		}
		isNew := existing == nil || !existing[pick.ID()]
		if maxNew > 0 && isNew && newPicks >= maxNew {
			continue
		}
		if isNew {
			newPicks++
		}
		selected = append(selected, pick)
		remaining -= pick.SizeBytes
		if pick.IsCovering() {
			for _, t := range pick.CoveringFor {
				coveredTemplates[t] = true
			}
		}

		// Filtering step.
		kept := cands[:0]
		for _, c := range cands {
			if c.arm.SizeBytes > remaining {
				continue
			}
			if c.arm.Index.SubsumedBy(pick.Index) {
				continue
			}
			if allCovered(c.arm.Queries, coveredTemplates) {
				continue
			}
			kept = append(kept, c)
		}
		cands = kept
	}
	s.selected = selected

	// Post-pass: an arm picked early can be subsumed by a wider arm picked
	// later (the step filter only looks forward); drop such redundant
	// prefixes from the final super arm.
	final := selected[:0]
	for i, a := range selected {
		redundant := false
		for j, b := range selected {
			if i != j && a.Index.SubsumedBy(b.Index) && (len(a.Index.Key) < len(b.Index.Key) || i > j) {
				redundant = true
				break
			}
		}
		if !redundant {
			final = append(final, a)
		}
	}
	return final
}

// allCovered reports whether every motivating template of the arm is
// already served by a selected covering index. Arms motivated by at least
// one uncovered template stay in play.
func allCovered(templates []int, covered map[int]bool) bool {
	if len(templates) == 0 {
		return false
	}
	for _, t := range templates {
		if !covered[t] {
			return false
		}
	}
	return true
}
