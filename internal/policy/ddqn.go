package policy

import (
	"encoding/json"
	"fmt"

	"dbabandits/internal/catalog"
	"dbabandits/internal/ddqn"
	"dbabandits/internal/engine"
	"dbabandits/internal/floatenc"
	"dbabandits/internal/index"
	"dbabandits/internal/linalg"
	"dbabandits/internal/mab"
	"dbabandits/internal/query"
)

func init() {
	Register("ddqn", func(e Env, p Params) (Policy, error) { return newDDQN(e, p, false) })
	Register("ddqn-sc", func(e Env, p Params) (Policy, error) { return newDDQN(e, p, true) })
}

// ddqnPolicy adapts the DDQN reinforcement-learning baseline (Figure 8).
// It consumes the same arms and contexts as the MAB tuner; the previous
// round's feedback is delivered lazily at the next Recommend, because
// the double-Q bootstrap needs the next round's candidate contexts.
type ddqnPolicy struct {
	name   string
	schema *catalog.Schema
	agent  *ddqn.Agent
	ctxb   *mab.ContextBuilder
	gen    *mab.ArmGenerator
	store  *mab.QueryStore
	dbSize int64
	budget int64

	cfg   *index.Config
	usage map[string]float64

	// Pending feedback: the arms selected this round, their decision-time
	// contexts, and which of them were materialised this round. Observe
	// turns these into (context, reward) pairs held until the next
	// Recommend supplies the bootstrap candidates.
	selected       []*mab.Arm
	selectedCtxs   map[string]linalg.Vector
	createdIDs     map[string]bool
	pendingCtxs    []linalg.Vector
	pendingRewards []float64

	// awaitingObserve marks the torn-round span between Recommend and
	// Observe, during which the selected arms' feedback state is live
	// and the policy refuses to snapshot.
	awaitingObserve bool
}

func newDDQN(e Env, p Params, singleColumn bool) (Policy, error) {
	name := "ddqn"
	if singleColumn {
		name = "ddqn-sc"
	}
	ctxb := mab.NewContextBuilder(e.Catalog())
	return &ddqnPolicy{
		name:   name,
		schema: e.Catalog(),
		agent:  ddqn.NewAgent(ctxb.Dim(), ddqn.AgentOptions{Seed: p.DDQNSeed, SingleColumn: singleColumn}),
		ctxb:   ctxb,
		gen:    mab.NewArmGenerator(e.Catalog()),
		store:  mab.NewQueryStore(),

		dbSize: e.DataSizeBytes(),
		budget: e.MemoryBudgetBytes(),
		cfg:    index.NewConfig(),
		usage:  map[string]float64{},
	}, nil
}

func (p *ddqnPolicy) Name() string { return p.name }

func (p *ddqnPolicy) Recommend(round int, lastWorkload []*query.Query) Recommendation {
	if len(lastWorkload) > 0 {
		p.store.Observe(round-1, lastWorkload)
	}
	qois := p.store.QoI(round - 1)
	arms := p.gen.Generate(qois)
	predCols := mab.PredicateColumnSet(qois)
	contexts := make([]linalg.Vector, len(arms))
	for i, a := range arms {
		// The context builder emits the bandit's sparse representation;
		// the neural agent consumes dense feature vectors.
		contexts[i] = p.ctxb.Build(a, mab.ArmInfo{
			PredicateColumns: predCols,
			Materialised:     p.cfg.Has(a.ID()),
			Usage:            p.usage[a.ID()],
			DatabaseBytes:    p.dbSize,
		}).Dense()
	}

	// Deliver the previous round's feedback with this round's candidates
	// as the bootstrap set.
	if p.pendingCtxs != nil {
		p.agent.Observe(p.pendingCtxs, p.pendingRewards, contexts)
		p.pendingCtxs, p.pendingRewards = nil, nil
	}

	selected := p.agent.SelectConfig(arms, contexts, p.budget)
	next := index.NewConfig()
	for _, a := range selected {
		next.Add(a.Index)
	}
	p.createdIDs = map[string]bool{}
	for _, ix := range next.Diff(p.cfg) {
		p.createdIDs[ix.ID()] = true
	}
	p.selected = selected
	p.selectedCtxs = map[string]linalg.Vector{}
	for i, a := range arms {
		p.selectedCtxs[a.ID()] = contexts[i]
	}
	p.cfg = next
	p.awaitingObserve = true

	return Recommendation{Config: next, RecommendSec: 0.0012 * float64(len(arms))}
}

func (p *ddqnPolicy) Observe(stats []*engine.ExecStats, creationSec map[string]float64) {
	gains, used := mab.GainsFromStats(stats)
	p.pendingCtxs, p.pendingRewards = nil, nil
	for _, a := range p.selected {
		rwd := gains[a.ID()]
		if p.createdIDs[a.ID()] {
			rwd -= creationSec[a.ID()]
		}
		p.pendingCtxs = append(p.pendingCtxs, p.selectedCtxs[a.ID()])
		p.pendingRewards = append(p.pendingRewards, rwd)
	}
	for id := range p.usage {
		p.usage[id] *= 0.6
	}
	for id := range used {
		p.usage[id]++
	}
	p.awaitingObserve = false
}

func (p *ddqnPolicy) Close() {}

// ddqnSnapshot is the policy's serialisable state. Beyond the agent
// (networks, replay buffer, RNG position) it carries the cross-round
// pending feedback: the previous round's (context, reward) pairs are
// held until the next Recommend supplies the bootstrap candidates, so
// at a round boundary they are live state, floatenc-encoded here.
type ddqnSnapshot struct {
	Agent          *ddqn.AgentSnapshot
	Store          *mab.QueryStoreSnapshot
	Config         []index.Def        `json:",omitempty"`
	Usage          map[string]float64 `json:",omitempty"`
	PendingCtxs    []string           `json:",omitempty"`
	PendingRewards []float64          `json:",omitempty"`
}

// Snapshot implements Snapshotter. Between Recommend and Observe the
// selected arms' feedback state is live and not serialisable, so
// mid-round snapshots are refused (the same round-boundary contract as
// the MAB tuner).
func (p *ddqnPolicy) Snapshot() (json.RawMessage, error) {
	if p.awaitingObserve {
		return nil, fmt.Errorf("%s policy snapshot mid-round (awaiting execution feedback); snapshot after Observe", p.name)
	}
	snap := &ddqnSnapshot{
		Agent:          p.agent.Snapshot(),
		Store:          p.store.Snapshot(),
		Config:         p.cfg.Defs(),
		Usage:          p.usage,
		PendingRewards: p.pendingRewards,
	}
	for _, x := range p.pendingCtxs {
		snap.PendingCtxs = append(snap.PendingCtxs, floatenc.Encode(x))
	}
	return json.Marshal(snap)
}

// Restore implements Snapshotter; the policy must have been constructed
// with the same Env and Params the snapshotted policy ran under.
func (p *ddqnPolicy) Restore(raw json.RawMessage) error {
	var snap ddqnSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("%s policy snapshot: %w", p.name, err)
	}
	if snap.Agent == nil {
		return fmt.Errorf("%s policy snapshot: missing agent", p.name)
	}
	store, err := mab.RestoreQueryStore(snap.Store)
	if err != nil {
		return fmt.Errorf("%s policy snapshot: %w", p.name, err)
	}
	if len(snap.PendingCtxs) != len(snap.PendingRewards) {
		return fmt.Errorf("%s policy snapshot: %d pending contexts for %d rewards",
			p.name, len(snap.PendingCtxs), len(snap.PendingRewards))
	}
	if err := index.ValidDefs(p.schema, snap.Config); err != nil {
		return fmt.Errorf("%s policy snapshot: %w", p.name, err)
	}
	if err := p.agent.Restore(snap.Agent); err != nil {
		return err
	}
	p.store = store
	p.cfg = index.ConfigFromDefs(snap.Config)
	p.usage = map[string]float64{}
	for k, v := range snap.Usage {
		p.usage[k] = v
	}
	p.pendingCtxs = nil
	for i, enc := range snap.PendingCtxs {
		x, err := floatenc.DecodeLen(enc, p.ctxb.Dim())
		if err != nil {
			return fmt.Errorf("%s policy snapshot: pending context %d: %w", p.name, i, err)
		}
		p.pendingCtxs = append(p.pendingCtxs, x)
	}
	p.pendingRewards = snap.PendingRewards
	p.selected = nil
	p.selectedCtxs = nil
	p.createdIDs = nil
	p.awaitingObserve = false
	return nil
}

var _ Snapshotter = (*ddqnPolicy)(nil)
