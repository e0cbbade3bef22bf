package mab

import (
	"fmt"
	"math"
	"sort"

	"dbabandits/internal/index"
	"dbabandits/internal/linalg"
)

// This file is the serialisation seam of the MAB layer: snapshots of the
// query store, the C2UCB bandit, and the whole tuner, taken at a round
// boundary and restorable into a freshly constructed instance built with
// the same options. A restored tuner's every subsequent recommendation
// is byte-identical to the uninterrupted tuner's — the checkpoint
// contract of the serving mode.
//
// Deliberately not serialised:
//   - the arm generator's proto/result memos (pure caches of
//     deterministic content; rebuilt on demand),
//   - the ridge theta memo (a pure function of the persisted matrices),
//   - pending mid-round feedback state (snapshots are refused until the
//     round's ObserveExecution has landed).

// QueryStoreSnapshot is the serialisable state of a QueryStore.
// Templates are signature-sorted so the marshalled bytes are
// deterministic.
type QueryStoreSnapshot struct {
	Window            int
	LastRound         int
	LastRoundNew      int
	LastRoundObserved int
	Templates         []TemplateInfo
}

// Snapshot captures the store's state.
func (qs *QueryStore) Snapshot() *QueryStoreSnapshot {
	s := &QueryStoreSnapshot{
		Window:            qs.Window,
		LastRound:         qs.lastRound,
		LastRoundNew:      qs.lastRoundNew,
		LastRoundObserved: qs.lastRoundObserved,
		Templates:         make([]TemplateInfo, 0, len(qs.bySig)),
	}
	for _, ti := range qs.bySig {
		s.Templates = append(s.Templates, *ti)
	}
	sort.Slice(s.Templates, func(i, j int) bool {
		return s.Templates[i].Signature < s.Templates[j].Signature
	})
	return s
}

// RestoreQueryStore rebuilds a store from its snapshot. A window below
// 1 is refused: under it QoI returns nothing, and the tuner would stop
// generating arms for the rest of the session. So is a template without
// its last instance, which QoI would hand to arm generation as a nil
// query.
func RestoreQueryStore(s *QueryStoreSnapshot) (*QueryStore, error) {
	if s == nil {
		return nil, fmt.Errorf("mab: nil query-store snapshot")
	}
	if s.Window < 1 {
		return nil, fmt.Errorf("mab: query-store snapshot window %d, want >= 1", s.Window)
	}
	qs := &QueryStore{
		bySig:             make(map[string]*TemplateInfo, len(s.Templates)),
		Window:            s.Window,
		lastRound:         s.LastRound,
		lastRoundNew:      s.LastRoundNew,
		lastRoundObserved: s.LastRoundObserved,
	}
	for i := range s.Templates {
		ti := s.Templates[i] // copy; do not alias the snapshot
		if ti.LastInstance == nil {
			return nil, fmt.Errorf("mab: query-store snapshot template %q has no instance", ti.Signature)
		}
		qs.bySig[ti.Signature] = &ti
	}
	return qs, nil
}

// C2UCBSnapshot is the serialisable state of the bandit: the ridge
// state plus the round counter and the adaptive reward scale. The alpha
// schedule (DefaultAlpha) is code, not state.
type C2UCBSnapshot struct {
	Ridge       *linalg.RidgeSnapshot
	Round       int
	RewardScale float64
}

// Snapshot captures the bandit's state.
func (b *C2UCB) Snapshot() *C2UCBSnapshot {
	return &C2UCBSnapshot{
		Ridge:       b.state.Snapshot(),
		Round:       b.round,
		RewardScale: b.rewardScale,
	}
}

// Restore replaces the bandit's learned state with the snapshot's. The
// snapshot's dimensionality must match — a dimension mismatch means the
// snapshot was taken under different context options and cannot be
// meaningfully resumed. A ridge snapshot written under a removed option
// fails with *linalg.RemovedOptionError (see linalg.RestoreRidgeState).
// A reward scale below 1 (or non-finite) is refused: Update never lets
// the live scale drop under 1, so such a snapshot is corrupt.
func (b *C2UCB) Restore(s *C2UCBSnapshot) error {
	if s == nil || s.Ridge == nil {
		return fmt.Errorf("mab: nil bandit snapshot")
	}
	if math.IsNaN(s.RewardScale) || math.IsInf(s.RewardScale, 0) || s.RewardScale < 1 {
		return fmt.Errorf("mab: bandit snapshot reward scale %v, want a finite value >= 1", s.RewardScale)
	}
	if s.Ridge.Dim != b.state.Dim {
		return fmt.Errorf("mab: bandit snapshot dimension %d, tuner built for %d (context options differ)",
			s.Ridge.Dim, b.state.Dim)
	}
	rs, err := linalg.RestoreRidgeState(s.Ridge)
	if err != nil {
		return err
	}
	b.state = rs
	b.round = s.Round
	b.rewardScale = s.RewardScale
	return nil
}

// TunerSnapshot is the serialisable state of the end-to-end tuner at a
// round boundary.
type TunerSnapshot struct {
	Bandit *C2UCBSnapshot
	Store  *QueryStoreSnapshot
	Round  int
	// Config is the currently recommended configuration s_t as
	// rebuildable index definitions.
	Config     []index.Def        `json:",omitempty"`
	Usage      map[string]float64 `json:",omitempty"`
	TableChurn map[string]float64 `json:",omitempty"`
	ColChurn   map[string]float64 `json:",omitempty"`
}

// Snapshot captures the tuner's state. It refuses to run mid-round:
// between Recommend and ObserveExecution the tuner holds pending
// feedback state (selected arms and their scored contexts) that is
// deliberately not serialisable — callers snapshot at round boundaries,
// after the round's execution feedback has been folded in.
func (t *Tuner) Snapshot() (*TunerSnapshot, error) {
	if len(t.pendingArms) > 0 {
		return nil, fmt.Errorf("mab: tuner snapshot mid-round (round %d awaiting execution feedback); snapshot after ObserveExecution", t.round)
	}
	return &TunerSnapshot{
		Bandit:     t.bandit.Snapshot(),
		Store:      t.store.Snapshot(),
		Round:      t.round,
		Config:     t.cfg.Defs(),
		Usage:      copyFloatMap(t.usage),
		TableChurn: copyFloatMap(t.tableChurn),
		ColChurn:   copyFloatMap(t.colChurn),
	}, nil
}

// Restore replaces the tuner's state with the snapshot's. The tuner
// must have been constructed (NewTuner) with the same schema and
// options the snapshotted tuner ran under; everything the options
// derive (context builder, arm generator) is rebuilt by construction and
// only the learned state is carried over. The query store must pass
// RestoreQueryStore, and the configuration must fit the schema
// (index.ValidDefs).
func (t *Tuner) Restore(s *TunerSnapshot) error {
	if s == nil || s.Bandit == nil || s.Store == nil {
		return fmt.Errorf("mab: nil tuner snapshot")
	}
	store, err := RestoreQueryStore(s.Store)
	if err != nil {
		return err
	}
	if err := index.ValidDefs(t.schema, s.Config); err != nil {
		return fmt.Errorf("mab: tuner snapshot: %w", err)
	}
	if err := t.bandit.Restore(s.Bandit); err != nil {
		return err
	}
	t.store = store
	t.round = s.Round
	t.cfg = index.ConfigFromDefs(s.Config)
	t.usage = copyFloatMap(s.Usage)
	t.tableChurn = copyFloatMap(s.TableChurn)
	t.colChurn = copyFloatMap(s.ColChurn)
	if t.usage == nil {
		t.usage = map[string]float64{}
	}
	if t.tableChurn == nil {
		t.tableChurn = map[string]float64{}
	}
	if t.colChurn == nil {
		t.colChurn = map[string]float64{}
	}
	t.pendingArms = nil
	t.pendingContexts = nil
	t.pendingCreated = nil
	t.pendingMaint = nil
	return nil
}

func copyFloatMap(m map[string]float64) map[string]float64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
