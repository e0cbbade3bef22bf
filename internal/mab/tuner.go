package mab

import (
	"dbabandits/internal/catalog"
	"dbabandits/internal/engine"
	"dbabandits/internal/index"
	"dbabandits/internal/linalg"
	"dbabandits/internal/query"
)

// TunerOptions configure the MAB tuner: the memory budget and the HTAP
// context extension. The tuning constants below are not options; the
// README's "Tuning constants" table lists them.
type TunerOptions struct {
	// MemoryBudgetBytes is the secondary-index budget M (the experiments
	// use 1x the data size).
	MemoryBudgetBytes int64
	// UpdateAwareContext appends the HTAP update-sensitivity components
	// (churn exposure + size-weighted churn) to every arm context, so the
	// bandit can learn to drop high-churn indexes. Off by default:
	// enabling it changes the context dimensionality, so analytical runs
	// keep the exact pre-HTAP numbers.
	UpdateAwareContext bool
}

const (
	// ridgeLambda is the ridge regularisation (the paper notes it
	// "becomes less relevant as rounds are observed").
	ridgeLambda = 0.25
	// shiftForgetThreshold is the shift intensity above which the bandit
	// forgets proportionally.
	shiftForgetThreshold = 0.5
	// maxForgetFactor caps the forgetting discount applied on a workload
	// shift (1.0 would reset fully on a complete shift). Retaining a
	// fraction of the learned creation-cost weights tempers post-shift
	// re-exploration.
	maxForgetFactor = 0.7
	// usageDecay is the per-round decay of the usage statistic D3.
	usageDecay = 0.6
	// maxNewIndexesPerRound throttles materialisations per round (see
	// selectSuperArmScratch).
	maxNewIndexesPerRound = 6
	// churnDecay is the per-round decay of the learned table/column
	// churn statistics.
	churnDecay = 0.5
)

// Tuner is the end-to-end MAB index tuner (Algorithm 2): it observes each
// round's workload, generates arms and contexts, asks C2UCB for a super
// arm under the memory budget, and shapes rewards from the observed
// execution and creation times.
type Tuner struct {
	schema *catalog.Schema
	opts   TunerOptions

	// Ablation hooks, set only by this package's tests:
	// disableForgetting turns shift-scaled forgetting off,
	// noCreationPenalty removes creation time from rewards (inviting
	// index oscillation).
	disableForgetting bool
	noCreationPenalty bool

	bandit *C2UCB
	ctxb   *ContextBuilder
	gen    *ArmGenerator
	store  *QueryStore

	cfg    *index.Config      // currently recommended configuration s_t
	usage  map[string]float64 // decayed per-index usage (context D3)
	round  int
	dbSize int64

	// Decayed churn statistics of the HTAP regime (context D4/D5): the
	// fraction of each table's rows recently written by INSERTs
	// (tableChurn, forcing maintenance on every index of the table) and
	// per written column by UPDATEs (colChurn, keyed "table.column").
	tableChurn map[string]float64
	colChurn   map[string]float64

	// Pending observation state: the arms selected this round and their
	// contexts, awaiting execution feedback, plus the per-index
	// maintenance seconds charged by the round's update statements.
	pendingArms     []*Arm
	pendingContexts []linalg.SparseVector
	pendingCreated  map[string]bool // ids materialised this round
	pendingMaint    map[string]float64
	// pendingEpoch is the pending arena's epoch at the moment the pending
	// contexts were copied out; ObserveExecution asserts it still holds
	// before feeding the contexts to the bandit (see roundScratch).
	pendingEpoch int

	scratch roundScratch
}

// roundScratch is the tuner's round-scoped working memory: every buffer
// the steady-state Recommend round needs, reset (not freed) at the top of
// each round so the round allocates near-zero once the buffers have grown
// to the workload's high-water mark.
//
// Lifetime discipline: everything backed by arena or contexts/scores is
// valid only until the next Recommend call. The one piece of round state
// that must outlive Recommend — the selected arms' contexts, consumed by
// ObserveExecution — is copied out of the scoring arena into the separate
// pending arena, whose epoch is recorded in Tuner.pendingEpoch and
// asserted at use. Anything else retaining a context past Recommend must
// do the same: copy out, or check the epoch.
type roundScratch struct {
	arena    linalg.SparseArena // backs the scored contexts, reset per round
	pending  linalg.SparseArena // backs the copied-out pending contexts
	contexts []linalg.SparseVector
	scores   []float64
	predCols map[query.ColumnRef]bool
	existing map[string]bool
	selPos   map[*Arm]int
	oracle   oracleScratch
	rewards  []float64
}

// NewTuner constructs the tuner for a schema. dbSizeBytes is the logical
// data size used to normalise the context's size component.
func NewTuner(schema *catalog.Schema, dbSizeBytes int64, opts TunerOptions) *Tuner {
	ctxb := NewContextBuilder(schema)
	ctxb.UpdateDims = opts.UpdateAwareContext
	return &Tuner{
		schema:     schema,
		opts:       opts,
		bandit:     NewC2UCB(ctxb.Dim(), ridgeLambda),
		ctxb:       ctxb,
		gen:        NewArmGenerator(schema),
		store:      NewQueryStore(),
		cfg:        index.NewConfig(),
		usage:      map[string]float64{},
		tableChurn: map[string]float64{},
		colChurn:   map[string]float64{},
		dbSize:     dbSizeBytes,
	}
}

// Config returns the currently recommended configuration.
func (t *Tuner) Config() *index.Config { return t.cfg }

// Bandit exposes the underlying C2UCB (diagnostics and tests).
func (t *Tuner) Bandit() *C2UCB { return t.bandit }

// Recommendation is the result of one tuning round.
type Recommendation struct {
	Config *index.Config
	// ToCreate is Config minus the previous configuration — the indexes
	// the system must materialise now.
	ToCreate []*index.Index
	// ToDrop lists index ids present before but no longer recommended.
	ToDrop []string
	// NumArms is the number of candidate arms scored this round.
	NumArms int
	// RecommendSec is the modelled recommendation time for the round.
	RecommendSec float64
}

// Recommend runs one bandit round: it folds the previous round's workload
// into the query store, applies shift-scaled forgetting, generates and
// scores arms, and selects the next configuration.
func (t *Tuner) Recommend(lastWorkload []*query.Query) *Recommendation {
	t.round++
	t.bandit.BeginRound()

	if len(lastWorkload) > 0 {
		t.store.Observe(t.round-1, lastWorkload)
		if !t.disableForgetting {
			if shift := t.store.ShiftIntensity(); shift >= shiftForgetThreshold && t.round > 2 {
				t.bandit.Forget(min(shift, maxForgetFactor))
			}
		}
	}

	qois := t.store.QoI(t.round - 1)
	arms := t.gen.Generate(qois)

	s := &t.scratch
	s.arena.Reset()
	if s.predCols == nil {
		s.predCols = map[query.ColumnRef]bool{}
		s.existing = map[string]bool{}
		s.selPos = map[*Arm]int{}
	}
	clear(s.predCols)
	predicateColumnsInto(qois, s.predCols)

	if cap(s.contexts) < len(arms) {
		s.contexts = make([]linalg.SparseVector, len(arms))
		s.scores = make([]float64, len(arms))
	}
	contexts := s.contexts[:len(arms)]
	for i, a := range arms {
		info := ArmInfo{
			PredicateColumns: s.predCols,
			Materialised:     t.cfg.Has(a.ID()),
			Usage:            t.usage[a.ID()],
			DatabaseBytes:    t.dbSize,
		}
		if t.opts.UpdateAwareContext {
			info.Churn = t.armChurn(a)
		}
		contexts[i] = t.ctxb.BuildArena(a, info, &s.arena)
	}
	scores := s.scores[:len(arms)]
	t.bandit.ScoresInto(contexts, scores)
	clear(s.existing)
	t.cfg.EachID(func(id string) { s.existing[id] = true })
	selected := selectSuperArmScratch(arms, scores, t.opts.MemoryBudgetBytes, s.existing, maxNewIndexesPerRound, &s.oracle)

	next := index.NewConfig()
	for _, a := range selected {
		next.Add(a.Index)
	}
	create, drop := next.DiffBoth(t.cfg)
	rec := &Recommendation{
		Config:   next,
		ToCreate: create,
		ToDrop:   drop,
		NumArms:  len(arms),
	}
	rec.RecommendSec = t.recommendSecModel(len(arms))

	// Pending state for the execution feedback. The decision-time view
	// (size component non-zero only if the arm required materialisation)
	// is exactly what Scores just saw, so the selected arms' contexts are
	// taken from the scored batch instead of being rebuilt — copied out of
	// the round arena (which the next Recommend recycles) into the pending
	// arena, whose epoch ObserveExecution re-checks.
	s.pending.Reset()
	t.pendingEpoch = s.pending.Epoch()
	t.pendingArms = append(t.pendingArms[:0], selected...)
	if cap(t.pendingContexts) < len(selected) {
		t.pendingContexts = make([]linalg.SparseVector, len(selected))
	}
	t.pendingContexts = t.pendingContexts[:len(selected)]
	if t.pendingCreated == nil {
		t.pendingCreated = map[string]bool{}
	}
	clear(t.pendingCreated)
	clear(s.selPos)
	for i, a := range selected {
		s.selPos[a] = i
		// t.cfg is still the previous configuration: an arm is created
		// this round exactly when it was not already materialised.
		t.pendingCreated[a.ID()] = !t.cfg.Has(a.ID())
	}
	for i, a := range arms {
		if j, ok := s.selPos[a]; ok {
			t.pendingContexts[j] = s.pending.CopySparse(contexts[i])
		}
	}

	t.cfg = next
	return rec
}

// ObserveExecution feeds back the true execution of the round's workload
// under the recommended configuration: per-query engine stats plus the
// actual creation seconds per materialised index id. It shapes per-arm
// rewards (Section IV, "Reward shaping") and updates the bandit.
func (t *Tuner) ObserveExecution(stats []*engine.ExecStats, creationSec map[string]float64) {
	if len(t.pendingArms) == 0 {
		// Nothing selected; decay usage and return.
		t.decayUsage(nil)
		return
	}
	gains, used := GainsFromStats(stats)

	if t.scratch.pending.Epoch() != t.pendingEpoch {
		// The pending contexts alias the pending arena; an epoch advance
		// would mean a Recommend ran before this round's feedback landed
		// and the contexts below are recycled memory.
		panic("mab: pending contexts outlived their arena epoch")
	}
	if cap(t.scratch.rewards) < len(t.pendingArms) {
		t.scratch.rewards = make([]float64, len(t.pendingArms))
	}
	rewards := t.scratch.rewards[:len(t.pendingArms)]
	for i, a := range t.pendingArms {
		r := gains[a.ID()]
		if t.pendingCreated[a.ID()] && !t.noCreationPenalty {
			r -= creationSec[a.ID()]
		}
		// Index maintenance charged by the round's update statements
		// (HTAP regime; the map is nil on analytical rounds) counts
		// against the arm that incurred it, so the bandit learns the
		// true net benefit of holding a high-churn index.
		r -= t.pendingMaint[a.ID()]
		rewards[i] = r
	}
	t.bandit.Update(t.pendingContexts, rewards)
	t.decayUsage(used)

	t.pendingArms = t.pendingArms[:0]
	t.pendingContexts = t.pendingContexts[:0]
	clear(t.pendingCreated)
	t.pendingMaint = nil
}

// ObserveUpdates feeds back one round's update statements and the
// per-index maintenance seconds actually charged (the HTAP regime's
// write-amplification signal). Call it after Recommend and before
// ObserveExecution: the charges are folded into the pending arms'
// rewards, and the statements update the decayed churn statistics that
// drive the next round's update-sensitivity context components.
func (t *Tuner) ObserveUpdates(updates []query.Update, perIndexSec map[string]float64) {
	t.pendingMaint = perIndexSec

	for k := range t.tableChurn {
		t.tableChurn[k] *= churnDecay
		if t.tableChurn[k] < 1e-9 {
			delete(t.tableChurn, k)
		}
	}
	for k := range t.colChurn {
		t.colChurn[k] *= churnDecay
		if t.colChurn[k] < 1e-9 {
			delete(t.colChurn, k)
		}
	}
	for _, u := range updates {
		meta, ok := t.schema.Table(u.Table)
		if !ok || meta.RowCount <= 0 {
			continue
		}
		frac := u.Rows / float64(meta.RowCount)
		if u.Kind == query.UpdateInsert {
			t.tableChurn[u.Table] += frac
			continue
		}
		for _, c := range u.Columns {
			t.colChurn[u.Table+"."+c] += frac
		}
	}
}

// armChurn is the arm's churn exposure: INSERT churn on its table (every
// index pays) plus UPDATE churn on each of its key/include columns.
func (t *Tuner) armChurn(a *Arm) float64 {
	churn := t.tableChurn[a.Table]
	if len(t.colChurn) > 0 {
		for _, c := range a.Index.Key {
			churn += t.colChurn[a.Table+"."+c]
		}
		for _, c := range a.Index.Include {
			churn += t.colChurn[a.Table+"."+c]
		}
	}
	return churn
}

// decayUsage applies the per-round decay and adds 1 for used indexes.
func (t *Tuner) decayUsage(used map[string]bool) {
	for id := range t.usage {
		t.usage[id] *= usageDecay
		if t.usage[id] < 1e-6 {
			delete(t.usage, id)
		}
	}
	for id := range used {
		t.usage[id] += 1
	}
}

// RecommendSecPerArm is the modelled recommendation seconds per
// candidate arm of a round, for every tuner that scores the MAB's arms.
const RecommendSecPerArm = 0.0012

// recommendSecModel converts a round's arm count into modelled
// recommendation seconds. Calibrated so that the MAB's recommendation
// overhead matches the paper's Table I profile: a sub-second continuous
// overhead dominated by a first-round setup cost.
func (t *Tuner) recommendSecModel(numArms int) float64 {
	sec := RecommendSecPerArm * float64(numArms)
	if t.round == 1 || t.bandit.state.Updates() == 0 && t.round <= 2 {
		sec += 0.8
	}
	return sec
}

// WarmStart pre-trains the bandit on hypothetical rounds before any real
// execution, addressing the cold-start problem the paper discusses in
// Section VII ("pre-training models in hypothetical rounds (using
// what-if)"). estimateGain returns the what-if estimated per-round gain of
// materialising one arm for the training workload; each hypothetical round
// feeds those estimates as simulated rewards. The estimates inherit the
// optimiser's misestimates, so warm starting trades cold-start cost for
// potential early bias — exactly the trade-off the paper sketches.
func (t *Tuner) WarmStart(training []*query.Query, estimateGain func(*Arm) float64, rounds int) {
	if len(training) == 0 || rounds <= 0 {
		return
	}
	arms := t.gen.Generate(training)
	if len(arms) == 0 {
		return
	}
	predCols := PredicateColumnSet(training)
	for r := 0; r < rounds; r++ {
		for _, a := range arms {
			x := t.ctxb.Build(a, ArmInfo{
				PredicateColumns: predCols,
				Materialised:     false,
				DatabaseBytes:    t.dbSize,
			})
			t.bandit.Update([]linalg.SparseVector{x}, []float64{estimateGain(a)})
		}
	}
}

// GainsFromStats computes the per-index execution gains of one round
// (Section IV, "Reward shaping"): for every index i used by the optimiser
// in some query q, gain_i += Ctab(tau(i), q, empty) - Ctab(tau(i), q, {i}).
// It also returns the set of used index ids. Shared by the MAB tuner and
// the DDQN baseline so both learn from identical signals.
func GainsFromStats(stats []*engine.ExecStats) (gains map[string]float64, used map[string]bool) {
	gains = map[string]float64{}
	used = map[string]bool{}
	for _, st := range stats {
		for id, acc := range st.IndexAccessSec {
			baseline, ok := st.TableScanSec[acc.Table]
			if !ok {
				continue
			}
			gains[id] += baseline - acc.Sec
			used[id] = true
		}
	}
	return gains, used
}

// PredicateColumnSet collects the (table, column) pairs of all filter and
// join predicate columns of the queries of interest; Part 1 context
// components are non-zero only for these (payload-only columns stay
// zero). Struct keys, not "table.column" strings: set construction and
// the per-arm membership tests in the context builder allocate nothing.
func PredicateColumnSet(qois []*query.Query) map[query.ColumnRef]bool {
	out := map[query.ColumnRef]bool{}
	predicateColumnsInto(qois, out)
	return out
}

// predicateColumnsInto is PredicateColumnSet into a caller-cleared map —
// the recommend loop reuses one across rounds.
func predicateColumnsInto(qois []*query.Query, out map[query.ColumnRef]bool) {
	for _, q := range qois {
		for _, p := range q.Filters {
			out[query.ColumnRef{Table: p.Table, Column: p.Column}] = true
		}
		for _, j := range q.Joins {
			out[query.ColumnRef{Table: j.LeftTable, Column: j.LeftColumn}] = true
			out[query.ColumnRef{Table: j.RightTable, Column: j.RightColumn}] = true
		}
	}
}
