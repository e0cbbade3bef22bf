package policy

import (
	"encoding/json"
	"fmt"

	"dbabandits/internal/engine"
	"dbabandits/internal/index"
	"dbabandits/internal/mab"
	"dbabandits/internal/query"
	"dbabandits/internal/snaprand"
)

func init() {
	Register("random", newRandomConfig)
}

// randomConfig is the random-configuration control: every round it draws
// a fresh uniformly random subset of the workload's candidate indexes
// under the memory budget. It is the sanity floor of the comparisons —
// any learning tuner must beat it, both because random subsets rarely
// match the workload and because re-drawing every round churns index
// creations. Like every baseline it is registered through the policy
// registry alone, with zero driver or harness edits.
type randomConfig struct {
	rng    *snaprand.Rand
	gen    *mab.ArmGenerator
	store  *mab.QueryStore
	budget int64
	cfg    *index.Config
}

// randomMaxPerRound caps how many indexes one draw materialises, keeping
// the control's creation churn (and experiment runtime) bounded; it
// mirrors the MAB's default per-round throttle.
const randomMaxPerRound = 6

func newRandomConfig(e Env, p Params) (Policy, error) {
	seed := p.RandomSeed
	if seed == 0 {
		seed = 1
	}
	return &randomConfig{
		// The draw-counting generator emits the identical sequence to the
		// plain rand.New(rand.NewSource(...)) used historically, so the
		// pinned goldens are unchanged — and the control is checkpointable.
		rng:    snaprand.New(seed*1_000_003 + 17),
		gen:    mab.NewArmGenerator(e.Catalog()),
		store:  mab.NewQueryStore(),
		budget: e.MemoryBudgetBytes(),
		cfg:    index.NewConfig(),
	}, nil
}

func (p *randomConfig) Name() string { return "random" }

func (p *randomConfig) Recommend(round int, lastWorkload []*query.Query) Recommendation {
	if len(lastWorkload) == 0 {
		// Round 1 decides blind, like every policy: keep the (empty)
		// configuration.
		return Recommendation{Config: p.cfg}
	}
	p.store.Observe(round-1, lastWorkload)
	arms := p.gen.Generate(p.store.QoI(round - 1))

	next := index.NewConfig()
	var used int64
	for _, i := range p.rng.Perm(len(arms)) {
		if next.Len() >= randomMaxPerRound {
			break
		}
		a := arms[i]
		if used+a.SizeBytes > p.budget {
			continue
		}
		if next.Add(a.Index) {
			used += a.SizeBytes
		}
	}
	p.cfg = next
	// Drawing a subset costs no analysis time: the control models a DBA
	// picking indexes blindly, so RecommendSec stays zero.
	return Recommendation{Config: next}
}

func (p *randomConfig) Observe([]*engine.ExecStats, map[string]float64) {}

func (p *randomConfig) Close() {}

// randomSnapshot is the control's serialisable state: the RNG position
// (seed plus draw count — restoring fast-forwards to the identical next
// draw), the query store, and the current configuration. The arm
// generator's memos are pure caches and are rebuilt on demand.
type randomSnapshot struct {
	Seed   int64
	Draws  uint64
	Store  *mab.QueryStoreSnapshot
	Config []index.Def `json:",omitempty"`
}

// Snapshot implements Snapshotter.
func (p *randomConfig) Snapshot() (json.RawMessage, error) {
	return json.Marshal(&randomSnapshot{
		Seed:   p.rng.Seed(),
		Draws:  p.rng.Draws(),
		Store:  p.store.Snapshot(),
		Config: p.cfg.Defs(),
	})
}

// Restore implements Snapshotter.
func (p *randomConfig) Restore(raw json.RawMessage) error {
	var snap randomSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("random policy snapshot: %w", err)
	}
	if snap.Store == nil {
		return fmt.Errorf("random policy snapshot: missing query store")
	}
	p.rng = snaprand.Restore(snap.Seed, snap.Draws)
	p.store.Restore(snap.Store)
	p.cfg = index.ConfigFromDefs(snap.Config)
	return nil
}

var _ Snapshotter = (*randomConfig)(nil)
