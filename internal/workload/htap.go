package workload

import (
	"math/rand"
	"sort"

	"dbabandits/internal/query"
	"dbabandits/internal/storage"
)

// UpdateSequencer is implemented by sequencers whose rounds carry
// update-shaped statements alongside the analytical queries. The
// environment's round loop detects the capability by type assertion, so
// purely analytical sequencers stay untouched.
type UpdateSequencer interface {
	Sequencer
	// UpdatesAt returns round r's update statements (1-based,
	// deterministic; nil on analytical-only rounds).
	UpdatesAt(r int) []query.Update
	// UpdatesEnabled reports whether any round can carry updates; a
	// sequencer with updates disabled is indistinguishable from its
	// analytical base.
	UpdatesEnabled() bool
}

// HTAPOptions tune the hybrid transactional/analytical sequencer.
type HTAPOptions struct {
	// UpdateEvery makes every k-th round update-heavy (default 2 —
	// alternate analytical and hybrid rounds). Negative disables updates
	// entirely, reducing the sequencer to its analytical base.
	UpdateEvery int
}

const (
	// htapStatements is the number of update statements per update-heavy
	// round.
	htapStatements = 4
	// htapMaxRowsFrac caps the fraction of a fact table's logical rows
	// one statement writes; drawn volumes vary uniformly in
	// (htapMaxRowsFrac/4, htapMaxRowsFrac].
	htapMaxRowsFrac = 0.02
)

func (o HTAPOptions) withDefaults() HTAPOptions {
	if o.UpdateEvery == 0 {
		o.UpdateEvery = 2
	}
	return o
}

// HTAPSequencer models the hybrid transactional/analytical regime of the
// journal follow-up ("No DBA? No regret!", VLDB J. 2023): the analytical
// side is the static sequencer (every template once per round, fresh
// constants), while every UpdateEvery-th round additionally carries a
// batch of INSERT/UPDATE-shaped statements against the benchmark's fact
// tables. Index maintenance induced by those statements becomes part of
// every policy's reward, so tuners that ignore write amplification
// overpay for high-churn indexes.
type HTAPSequencer struct {
	inner *StaticSequencer
	db    *storage.Database
	seed  int64
	opts  HTAPOptions
	facts []string
}

// NewHTAP builds an HTAP sequencer over the benchmark's static analytical
// workload, with update-heavy rounds drawn against the fact tables.
func NewHTAP(bench *Benchmark, db *storage.Database, seed int64, rounds int, opts HTAPOptions) *HTAPSequencer {
	return &HTAPSequencer{
		inner: NewStatic(bench, db, seed, rounds),
		db:    db,
		seed:  seed,
		opts:  opts.withDefaults(),
		facts: FactTables(db),
	}
}

// FactTables returns the benchmark's fact tables: every table whose
// logical row count is at least a quarter of the largest table's, sorted
// by name. For the star/snowflake suites this selects exactly the big
// fact tables (e.g. the three TPC-DS sales channels) and never the
// small dimensions.
func FactTables(db *storage.Database) []string {
	var max float64
	for _, t := range db.Tables {
		if r := t.LogicalRows(); r > max {
			max = r
		}
	}
	var out []string
	for name, t := range db.Tables {
		if t.LogicalRows() >= max/4 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Round implements Sequencer: the analytical side of every round is the
// static workload, so HTAP results are directly comparable to static
// ones.
func (s *HTAPSequencer) Round(r int) []*query.Query { return s.inner.Round(r) }

// Rounds implements Sequencer.
func (s *HTAPSequencer) Rounds() int { return s.inner.Rounds() }

// UpdatesEnabled implements UpdateSequencer.
func (s *HTAPSequencer) UpdatesEnabled() bool { return s.opts.UpdateEvery > 0 && len(s.facts) > 0 }

// UpdatesAt implements UpdateSequencer: deterministic in (seed, round)
// alone, like the analytical draws, so HTAP cells parallelise with
// byte-identical results.
func (s *HTAPSequencer) UpdatesAt(r int) []query.Update {
	if !s.UpdatesEnabled() || r%s.opts.UpdateEvery != 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(s.seed ^ int64(r)*777_767))
	out := make([]query.Update, 0, htapStatements)
	for i := 0; i < htapStatements; i++ {
		table := s.facts[rng.Intn(len(s.facts))]
		tbl := s.db.MustTable(table)
		frac := htapMaxRowsFrac * (0.25 + 0.75*rng.Float64())
		u := query.Update{
			Table: table,
			Rows:  frac * tbl.LogicalRows(),
		}
		if rng.Intn(2) == 0 {
			u.Kind = query.UpdateInsert
		} else {
			u.Kind = query.UpdateModify
			// 1-3 written columns, drawn without replacement in
			// catalog order for determinism.
			cols := tbl.Meta.Columns
			n := 1 + rng.Intn(3)
			if n > len(cols) {
				n = len(cols)
			}
			for _, pi := range rng.Perm(len(cols))[:n] {
				u.Columns = append(u.Columns, cols[pi].Name)
			}
			sort.Strings(u.Columns)
		}
		out = append(out, u)
	}
	return out
}
