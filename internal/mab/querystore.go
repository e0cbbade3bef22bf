package mab

import (
	"sort"

	"dbabandits/internal/query"
)

// TemplateInfo summarises one observed query template, as kept by the
// query store in Algorithm 2: frequency, first/last seen rounds, and the
// latest instance (whose predicates drive arm generation).
type TemplateInfo struct {
	ID        int
	Signature string
	Frequency int
	FirstSeen int
	LastSeen  int
	// Instances seen in the most recent observation round.
	LastRoundCount int
	LastInstance   *query.Query

	// seenIn stamps the round (as round+1, so the zero value means
	// "never") whose Observe call last reset LastRoundCount. It replaces
	// the per-call seen-set map; unexported, so snapshots — which copy
	// the exported fields only — are unaffected.
	seenIn int
}

// qoiWindow is the recency window (in rounds) for queries of interest:
// templates unseen for longer stop generating arms.
const qoiWindow = 3

// QueryStore tracks workload templates across rounds (Algorithm 2's QS).
type QueryStore struct {
	bySig map[string]*TemplateInfo

	lastRound         int
	lastRoundNew      int
	lastRoundObserved int

	qoiInfos []*TemplateInfo // QoI ordering scratch, reused across rounds
}

// NewQueryStore returns an empty store.
func NewQueryStore() *QueryStore {
	return &QueryStore{bySig: map[string]*TemplateInfo{}}
}

// Observe folds one round's workload into the store and returns the
// number of previously unseen templates (the workload-shift signal).
// Rounds must be observed in increasing order (the driver's natural
// call pattern): first-sight-this-round is tracked by stamping each
// template with the round rather than building a per-call set.
func (qs *QueryStore) Observe(round int, queries []*query.Query) int {
	newTemplates := 0
	observed := 0
	for _, q := range queries {
		sig := q.Signature()
		ti, ok := qs.bySig[sig]
		if !ok {
			ti = &TemplateInfo{ID: q.TemplateID, Signature: sig, FirstSeen: round}
			qs.bySig[sig] = ti
			newTemplates++
		}
		ti.Frequency++
		ti.LastSeen = round
		ti.LastInstance = q
		if ti.seenIn != round+1 {
			ti.seenIn = round + 1
			ti.LastRoundCount = 0
			observed++
		}
		ti.LastRoundCount++
	}
	qs.lastRound = round
	qs.lastRoundNew = newTemplates
	qs.lastRoundObserved = observed
	return newTemplates
}

// QoI returns the queries of interest for the upcoming round: the latest
// instance of every template seen within the recency window, ordered by
// template id then signature for determinism.
func (qs *QueryStore) QoI(round int) []*query.Query {
	infos := qs.qoiInfos[:0]
	for _, ti := range qs.bySig {
		if round-ti.LastSeen < qoiWindow {
			infos = append(infos, ti)
		}
	}
	qs.qoiInfos = infos
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].ID != infos[j].ID {
			return infos[i].ID < infos[j].ID
		}
		return infos[i].Signature < infos[j].Signature
	})
	out := make([]*query.Query, len(infos))
	for i, ti := range infos {
		out[i] = ti.LastInstance
	}
	return out
}

// ShiftIntensity reports the fraction of the last observed round's
// templates that were new — the signal that scales forgetting ("the
// learner can forget learned knowledge depending on the workload shift
// intensity").
func (qs *QueryStore) ShiftIntensity() float64 {
	if qs.lastRoundObserved == 0 {
		return 0
	}
	return float64(qs.lastRoundNew) / float64(qs.lastRoundObserved)
}
