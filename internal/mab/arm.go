// Package mab implements the paper's primary contribution: online index
// selection as a contextual combinatorial multi-armed bandit (C2UCB).
//
// The package provides dynamic arm generation from workload predicates
// (Section IV "Dynamic arms from workload predicates"), two-part context
// engineering (indexed-column-prefix encoding plus derived statistics),
// the C2UCB scoring loop with shared ridge-regression weights, a greedy
// knapsack super-arm oracle with prefix/covering filtering, reward shaping
// from observed execution gains and index creation costs, and the query
// store with workload-shift-scaled forgetting (Algorithm 2).
package mab

import (
	"sort"
	"strconv"

	"dbabandits/internal/catalog"
	"dbabandits/internal/index"
	"dbabandits/internal/query"
)

// Arm is a candidate index the bandit may choose. Arms are identified by
// their index id; the same arm regenerated from a different query keeps
// its learned usage statistics (knowledge lives in the shared theta, but
// usage metadata feeds the context's derived part).
type Arm struct {
	Index *index.Index
	// SizeBytes is the estimated materialised size (the knapsack cost c_i).
	SizeBytes int64
	// Table caches Index.Table.
	Table string
	// Queries lists the template ids of the queries of interest that
	// motivated this arm in the current round.
	Queries []int
	// CoveringFor lists template ids for which this arm is a covering
	// index (drives the oracle's covering filter and context flag D1).
	CoveringFor []int
}

// ID returns the canonical arm identifier (the index id).
func (a *Arm) ID() string { return a.Index.ID() }

// IsCovering reports whether the arm covers any motivating query.
func (a *Arm) IsCovering() bool { return len(a.CoveringFor) > 0 }

const (
	// maxPermutationCols is the largest predicate-column-set size for
	// which all permutations are generated (larger sets fall back to
	// canonical orderings).
	maxPermutationCols = 3
	// maxArmsPerTableQuery caps arms generated per (query, table) pair.
	maxArmsPerTableQuery = 24
)

// armProto is one memoised candidate of a (query shape, table) pair: the
// index object (with its id string already built), its estimated size,
// and whether it covers the motivating query shape. Everything in it is a
// pure function of the query's structure — tables, predicate columns and
// operators, joins, payload — which query.Signature() canonises, so
// protos are shared across rounds and across query instances.
type armProto struct {
	ix     *index.Index
	size   int64
	covers bool
}

// ArmGenerator turns queries of interest into candidate arms.
//
// Generation is memoised at two levels, both keyed by the query's one
// shape key, query.Signature(), since instances of one template differ
// only in constants. Per (query shape, table) the full key-order
// enumeration (permutations, capped orderings, covering variants, sizes,
// ids) is computed once ever. The final deduplicated sorted arm set is
// remembered for the last QoI sequence, an ordered list of (template
// id, shape) pairs, only. On the repository benchmark every arm-set hit
// replays the call just before it (118 of 120 static TPC-DS rounds, 118
// of 119 HTAP advisor rounds), and ad-hoc and serving traffic never hits
// (0 of 1200 random rounds, 0 of 300 serving windows), so one remembered
// set keeps every hit. A generator is not safe for concurrent use (each
// tuner instance owns one).
type ArmGenerator struct {
	schema *catalog.Schema

	protos map[protoKey][]armProto // (query shape, table) -> protos
	// lastKey is the ordered (template id, shape) list of the previous
	// Generate call, and lastArms the arm set built for it.
	lastKey  string
	lastArms []*Arm

	// Per-call scratch, reused across rounds: the result key of Generate
	// and the column-classification sets of proto enumeration.
	keyBuf  []byte
	colSet  map[string]bool
	eqCols  map[string]bool
	rngCols map[string]bool
}

// protoKey addresses the proto memo without concatenating its parts.
type protoKey struct {
	shape string
	table string
}

// NewArmGenerator returns a generator over the schema.
func NewArmGenerator(schema *catalog.Schema) *ArmGenerator {
	return &ArmGenerator{
		schema:  schema,
		protos:  map[protoKey][]armProto{},
		colSet:  map[string]bool{},
		eqCols:  map[string]bool{},
		rngCols: map[string]bool{},
	}
}

// Generate produces the candidate arms for a set of queries of interest,
// de-duplicated by index id, in deterministic order. Workload-based
// generation keeps the action space proportional to the observed
// workload's predicate columns rather than all column combinations.
//
// The proto memo and the last-arm-set replay are both keyed by each
// query's Signature(), which covers everything arm generation reads of
// a query but its constants. Callers must treat the returned arms as
// immutable: the same *Arm values are handed out again when the next
// call replays the same QoI sequence.
func (g *ArmGenerator) Generate(qois []*query.Query) []*Arm {
	buf := g.keyBuf[:0]
	for _, q := range qois {
		buf = strconv.AppendInt(buf, int64(q.TemplateID), 10)
		buf = append(buf, 0)
		buf = append(buf, q.Signature()...)
		buf = append(buf, 1)
	}
	g.keyBuf = buf
	// Comparing string(buf) does not allocate, so a replay of the last
	// QoI sequence allocates only the returned copy.
	if g.lastArms != nil && string(buf) == g.lastKey {
		return append([]*Arm(nil), g.lastArms...)
	}

	byID := map[string]*Arm{}
	for _, q := range qois {
		for _, tname := range q.Tables {
			meta, ok := g.schema.Table(tname)
			if !ok {
				continue
			}
			pkey := protoKey{shape: q.Signature(), table: tname}
			protos, ok := g.protos[pkey]
			if !ok {
				protos = g.protosForTable(q, meta)
				g.protos[pkey] = protos
			}
			for _, p := range protos {
				id := p.ix.ID()
				arm, exists := byID[id]
				if !exists {
					arm = &Arm{Index: p.ix, Table: tname, SizeBytes: p.size}
					byID[id] = arm
				}
				arm.Queries = appendUnique(arm.Queries, q.TemplateID)
				if p.covers {
					arm.CoveringFor = appendUnique(arm.CoveringFor, q.TemplateID)
				}
			}
		}
	}
	arms := make([]*Arm, 0, len(byID))
	for _, a := range byID {
		arms = append(arms, a)
	}
	sort.Slice(arms, func(i, j int) bool { return arms[i].ID() < arms[j].ID() })

	g.lastKey, g.lastArms = string(buf), arms
	return append([]*Arm(nil), arms...)
}

// protosForTable enumerates the candidate indexes one query shape
// motivates on one table. Predicate columns include join columns (the
// paper: "combinations and permutations of query predicates (including
// join predicates)").
func (g *ArmGenerator) protosForTable(q *query.Query, meta *catalog.Table) []armProto {
	predCols := q.PredicateColumnsOn(meta.Name)
	joinCols := q.JoinColumnsOn(meta.Name)
	colSet := g.colSet
	clear(colSet)
	for _, c := range predCols {
		colSet[c] = true
	}
	for _, c := range joinCols {
		// The clustered PK already serves join seeks on its leading
		// column; skip those to avoid useless duplicate arms.
		if len(meta.PK) > 0 && meta.PK[0] == c {
			continue
		}
		colSet[c] = true
	}
	cols := make([]string, 0, len(colSet))
	for c := range colSet {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	if len(cols) == 0 {
		return nil
	}

	var keys [][]string
	if len(cols) <= maxPermutationCols {
		keys = permutationsOfSubsets(cols)
	} else {
		keys = g.cappedKeyOrders(q, meta, cols)
	}
	if len(keys) > maxArmsPerTableQuery {
		keys = keys[:maxArmsPerTableQuery]
	}

	payload := q.PayloadColumnsOn(meta.Name)
	protos := make([]armProto, 0, len(keys)+1)
	addProto := func(key, include []string) {
		// The enumerated key orderings are freshly built and never reused
		// mutably, so the index can own them without a defensive copy.
		ix := index.NewOwnKey(meta.Name, key, include)
		protos = append(protos, armProto{
			ix:   ix,
			size: ix.SizeBytes(meta),
			// Equivalent to ix.CoversQueryOn(q, meta.Name), against the
			// referenced-column lists already extracted above rather than
			// re-deriving them per candidate.
			covers: hasAllColumns(ix, predCols) &&
				hasAllColumns(ix, joinCols) &&
				hasAllColumns(ix, payload),
		})
	}
	for _, key := range keys {
		addProto(key, nil)
		// Covering variant: full-predicate-set keys with payload includes.
		if len(payload) > 0 && len(key) == len(cols) {
			addProto(key, payload)
		}
	}
	return protos
}

func hasAllColumns(ix *index.Index, cols []string) bool {
	for _, c := range cols {
		if !ix.HasColumn(c) {
			return false
		}
	}
	return true
}

// permutationsOfSubsets returns every permutation of every non-empty
// subset of cols (at most maxPermutationCols of them). The permutations
// share one flat backing array sized exactly in advance, so the
// enumeration costs three allocations however many orderings it emits.
func permutationsOfSubsets(cols []string) [][]string {
	n := len(cols)
	perms, entries := 0, 0
	p := 1
	for k := 1; k <= n; k++ {
		p *= n - k + 1 // P(n,k): permutations of length k
		perms += p
		entries += p * k
	}
	out := make([][]string, 0, perms)
	flat := make([]string, 0, entries)
	// Fixed-size working arrays; only out and flat escape.
	var curArr [maxPermutationCols]string
	var usedArr [maxPermutationCols]bool
	cur, used := curArr[:0], usedArr[:n]
	var rec func()
	rec = func() {
		if len(cur) > 0 {
			start := len(flat)
			flat = append(flat, cur...)
			out = append(out, flat[start:len(flat):len(flat)])
		}
		if len(cur) == n {
			return
		}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			cur = append(cur, cols[i])
			rec()
			cur = cur[:len(cur)-1]
			used[i] = false
		}
	}
	rec()
	return out
}

// cappedKeyOrders handles wide predicate sets: all singles, ordered pairs
// of the most selective columns, and a canonical full ordering (equality
// columns by descending NDV — most selective seeks first — then the
// rest).
func (g *ArmGenerator) cappedKeyOrders(q *query.Query, meta *catalog.Table, cols []string) [][]string {
	var out [][]string
	for _, c := range cols {
		out = append(out, []string{c})
	}
	ranked := g.rankColumns(q, meta, cols)
	top := ranked
	if len(top) > maxPermutationCols {
		top = top[:maxPermutationCols]
	}
	for _, a := range top {
		for _, b := range top {
			if a != b {
				out = append(out, []string{a, b})
			}
		}
	}
	out = append(out, append([]string(nil), ranked...))
	return out
}

// rankColumns orders columns: equality-predicate columns first (by NDV
// descending — higher NDV means a sharper seek), then range columns, then
// join-only columns.
func (g *ArmGenerator) rankColumns(q *query.Query, meta *catalog.Table, cols []string) []string {
	eq, rng := g.eqCols, g.rngCols
	clear(eq)
	clear(rng)
	for _, p := range q.FiltersOn(meta.Name) {
		if p.IsEquality() {
			eq[p.Column] = true
		} else {
			rng[p.Column] = true
		}
	}
	ndv := func(c string) int64 {
		if col, ok := meta.Column(c); ok {
			return col.Stats.NDV
		}
		return 0
	}
	class := func(c string) int {
		switch {
		case eq[c]:
			return 0
		case rng[c]:
			return 1
		default:
			return 2
		}
	}
	ranked := append([]string(nil), cols...)
	sort.SliceStable(ranked, func(i, j int) bool {
		ci, cj := class(ranked[i]), class(ranked[j])
		if ci != cj {
			return ci < cj
		}
		ni, nj := ndv(ranked[i]), ndv(ranked[j])
		if ni != nj {
			return ni > nj
		}
		return ranked[i] < ranked[j]
	})
	return ranked
}

func appendUnique(list []int, v int) []int {
	for _, x := range list {
		if x == v {
			return list
		}
	}
	return append(list, v)
}
