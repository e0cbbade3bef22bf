package workload

import (
	"math/rand"

	"dbabandits/internal/query"
	"dbabandits/internal/storage"
)

// Sequencer produces each round's mini-workload (1-based rounds).
type Sequencer interface {
	// Round returns the queries of round r; instances are fresh draws of
	// their templates.
	Round(r int) []*query.Query
	// Rounds returns the total number of rounds in the experiment.
	Rounds() int
}

// StaticSequencer invokes every template once per round with fresh
// constants — the paper's static workloads ("all query templates in the
// benchmark are invoked once every round, each with a different query
// instance of the template"), default 25 rounds.
type StaticSequencer struct {
	bench  *Benchmark
	db     *storage.Database
	seed   int64
	rounds int
}

// NewStatic builds a static sequencer.
func NewStatic(bench *Benchmark, db *storage.Database, seed int64, rounds int) *StaticSequencer {
	if rounds <= 0 {
		rounds = 25
	}
	return &StaticSequencer{bench: bench, db: db, seed: seed, rounds: rounds}
}

// Round implements Sequencer.
func (s *StaticSequencer) Round(r int) []*query.Query {
	rng := rand.New(rand.NewSource(s.seed ^ int64(r)*1_000_003))
	out := make([]*query.Query, 0, len(s.bench.Templates))
	for _, ts := range s.bench.Templates {
		out = append(out, ts.Instantiate(rng, s.db, s.bench.Name))
	}
	return out
}

// Rounds implements Sequencer.
func (s *StaticSequencer) Rounds() int { return s.rounds }

// ShiftGroups is the number of template groups the shifting regime
// moves through (the paper's 4 x 20 rounds); policy.InvocationRounds
// retrains the offline tool once per group.
const ShiftGroups = 4

// ShiftingSequencer divides the templates into ShiftGroups equal
// groups; each group runs for a span of rounds, then the workload
// switches to the next group with no overlap ("the region of interest
// shifts over time from one group of queries to another").
//
// Round totals need not divide evenly: the rounds are floor-partitioned
// across the groups (group g covers rounds g*total/G+1 through
// (g+1)*total/G), the same ragged split policy.InvocationRounds assumes,
// so e.g. 10 rounds over 4 groups run as spans of 2, 3, 2 and 3 rounds
// instead of being truncated to 8.
type ShiftingSequencer struct {
	bench       *Benchmark
	db          *storage.Database
	seed        int64
	groups      [][]TemplateSpec
	totalRounds int
}

// NewShifting builds a shifting sequencer of totalRounds rounds
// (default 80, 20 per group).
func NewShifting(bench *Benchmark, db *storage.Database, seed int64, totalRounds int) *ShiftingSequencer {
	if totalRounds <= 0 {
		totalRounds = ShiftGroups * 20
	}
	// Random equal division of templates into groups, deterministic in
	// the seed.
	rng := rand.New(rand.NewSource(seed*31 + 7))
	perm := rng.Perm(len(bench.Templates))
	groups := make([][]TemplateSpec, ShiftGroups)
	for i, pi := range perm {
		g := i * ShiftGroups / len(perm)
		groups[g] = append(groups[g], bench.Templates[pi])
	}
	return &ShiftingSequencer{
		bench: bench, db: db, seed: seed,
		groups: groups, totalRounds: totalRounds,
	}
}

// GroupOf returns which template group round r draws from: the group
// whose floor-partitioned span contains r.
func (s *ShiftingSequencer) GroupOf(r int) int {
	for g := 0; g < ShiftGroups; g++ {
		if r <= (g+1)*s.totalRounds/ShiftGroups {
			return g
		}
	}
	return ShiftGroups - 1
}

// Round implements Sequencer.
func (s *ShiftingSequencer) Round(r int) []*query.Query {
	rng := rand.New(rand.NewSource(s.seed ^ int64(r)*999_983))
	group := s.groups[s.GroupOf(r)]
	out := make([]*query.Query, 0, len(group))
	for _, ts := range group {
		out = append(out, ts.Instantiate(rng, s.db, s.bench.Name))
	}
	return out
}

// Rounds implements Sequencer.
func (s *ShiftingSequencer) Rounds() int { return s.totalRounds }

// RandomSequencer models truly ad-hoc workloads: each round draws a
// random multiset of templates, as many as the benchmark has, so the
// total sequence matches the static experiment's query volume, as in
// the paper (which reports 45-54% round-to-round template repeat under
// this scheme; drawing n templates uniformly from n with replacement
// reproduces that band for the benchmark sizes used).
type RandomSequencer struct {
	bench  *Benchmark
	db     *storage.Database
	seed   int64
	rounds int
}

// NewRandom builds a random sequencer.
func NewRandom(bench *Benchmark, db *storage.Database, seed int64, rounds int) *RandomSequencer {
	if rounds <= 0 {
		rounds = 25
	}
	return &RandomSequencer{bench: bench, db: db, seed: seed, rounds: rounds}
}

// Round implements Sequencer.
func (s *RandomSequencer) Round(r int) []*query.Query {
	rng := rand.New(rand.NewSource(s.seed ^ int64(r)*899_981))
	n := len(s.bench.Templates)
	out := make([]*query.Query, 0, n)
	for i := 0; i < n; i++ {
		ts := s.bench.Templates[rng.Intn(n)]
		out = append(out, ts.Instantiate(rng, s.db, s.bench.Name))
	}
	return out
}

// Rounds implements Sequencer.
func (s *RandomSequencer) Rounds() int { return s.rounds }
