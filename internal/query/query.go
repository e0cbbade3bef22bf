// Package query defines the structured representation of analytical
// queries shared by the execution engine, the optimiser, the bandit tuner
// and the baseline advisors. A query is a conjunctive select-project-join
// block: base-table filter predicates, equi-join predicates, and a payload
// (projected columns). This mirrors what the paper's tuner extracts from
// monitored SQL: "query predicates, payload, etc." (Section IV).
package query

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Op is a filter predicate operator.
type Op int

const (
	OpEq Op = iota
	OpRange
	OpLt
	OpGt
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpRange:
		return "between"
	case OpLt:
		return "<"
	case OpGt:
		return ">"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Predicate is a single-column filter on a base table. For OpEq the bounds
// are Lo==Hi; for OpRange the match is Lo <= v <= Hi; OpLt matches v < Hi;
// OpGt matches v > Lo.
type Predicate struct {
	Table  string
	Column string
	Op     Op
	Lo, Hi int64
}

// Matches reports whether value v satisfies the predicate.
func (p Predicate) Matches(v int64) bool {
	lo, hi := p.Bounds()
	return v >= lo && v <= hi
}

// Bounds returns the inclusive value range [lo, hi] the predicate
// matches; lo > hi when it matches nothing. A column scan can test the
// range without re-dispatching on Op per value.
func (p Predicate) Bounds() (lo, hi int64) {
	switch p.Op {
	case OpEq:
		return p.Lo, p.Lo
	case OpRange:
		return p.Lo, p.Hi
	case OpLt:
		if p.Hi == math.MinInt64 {
			return 0, -1
		}
		return math.MinInt64, p.Hi - 1
	case OpGt:
		if p.Lo == math.MaxInt64 {
			return 0, -1
		}
		return p.Lo + 1, math.MaxInt64
	default:
		return 0, -1
	}
}

// IsEquality reports whether the predicate pins the column to one value,
// which makes it usable as an index seek prefix component.
func (p Predicate) IsEquality() bool { return p.Op == OpEq }

// String renders the predicate as SQL-ish text.
func (p Predicate) String() string {
	col := p.Table + "." + p.Column
	switch p.Op {
	case OpEq:
		return fmt.Sprintf("%s = %d", col, p.Lo)
	case OpRange:
		return fmt.Sprintf("%s BETWEEN %d AND %d", col, p.Lo, p.Hi)
	case OpLt:
		return fmt.Sprintf("%s < %d", col, p.Hi)
	case OpGt:
		return fmt.Sprintf("%s > %d", col, p.Lo)
	default:
		return col + " ?"
	}
}

// Join is an equi-join predicate between two tables.
type Join struct {
	LeftTable, LeftColumn   string
	RightTable, RightColumn string
}

// String renders the join as SQL-ish text.
func (j Join) String() string {
	return fmt.Sprintf("%s.%s = %s.%s", j.LeftTable, j.LeftColumn, j.RightTable, j.RightColumn)
}

// ColumnRef names a column of a table.
type ColumnRef struct {
	Table, Column string
}

// Query is one conjunctive analytical query instance.
type Query struct {
	// TemplateID identifies the query template this instance was drawn
	// from; the tuner's query store aggregates per template.
	TemplateID int
	// Benchmark names the originating suite (informational).
	Benchmark string

	Tables  []string
	Filters []Predicate
	Joins   []Join
	Payload []ColumnRef

	// AggWidth models the relative cost of the aggregation/sort tail of
	// the query (group-by count etc.); 0 means a bare select.
	AggWidth int

	// sig memoises Signature: the shape never changes after construction,
	// and the query store plus the arm generator both ask per round.
	sig string
}

// FiltersOn returns the filter predicates on one table.
func (q *Query) FiltersOn(table string) []Predicate {
	var out []Predicate
	for _, p := range q.Filters {
		if p.Table == table {
			out = append(out, p)
		}
	}
	return out
}

// JoinColumnsOn returns the set of columns of the given table that appear
// in join predicates, sorted.
func (q *Query) JoinColumnsOn(table string) []string {
	set := map[string]bool{}
	for _, j := range q.Joins {
		if j.LeftTable == table {
			set[j.LeftColumn] = true
		}
		if j.RightTable == table {
			set[j.RightColumn] = true
		}
	}
	return sortedKeys(set)
}

// PredicateColumnsOn returns the filter-predicate columns of the table,
// sorted and de-duplicated. These are the columns from which index arms
// are generated.
func (q *Query) PredicateColumnsOn(table string) []string {
	set := map[string]bool{}
	for _, p := range q.Filters {
		if p.Table == table {
			set[p.Column] = true
		}
	}
	return sortedKeys(set)
}

// PayloadColumnsOn returns the projected columns of the table, sorted.
func (q *Query) PayloadColumnsOn(table string) []string {
	set := map[string]bool{}
	for _, c := range q.Payload {
		if c.Table == table {
			set[c.Column] = true
		}
	}
	return sortedKeys(set)
}

// ReferencesTable reports whether the query touches the table.
func (q *Query) ReferencesTable(table string) bool {
	for _, t := range q.Tables {
		if t == table {
			return true
		}
	}
	return false
}

// SQL renders an equivalent SQL text for logging and examples.
func (q *Query) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if len(q.Payload) == 0 {
		b.WriteString("COUNT(*)")
	} else {
		parts := make([]string, len(q.Payload))
		for i, c := range q.Payload {
			parts[i] = c.Table + "." + c.Column
		}
		b.WriteString(strings.Join(parts, ", "))
	}
	b.WriteString(" FROM ")
	b.WriteString(strings.Join(q.Tables, ", "))
	var conds []string
	for _, j := range q.Joins {
		conds = append(conds, j.String())
	}
	for _, p := range q.Filters {
		conds = append(conds, p.String())
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	return b.String()
}

// Signature returns a canonical string identifying the query's shape:
// tables, filter columns and operators, payload columns and join
// predicates, ignoring the literal constants. It is the one shape key
// of the tuner: the query store recognises returning templates by it
// and the arm generator memoises candidate indexes by it. Each section
// is sorted and each join's two sides are put in a fixed order, so the
// key does not depend on the order a query lists them in. The string
// is memoised on the query: instances are immutable once instantiated.
func (q *Query) Signature() string {
	if q.sig == "" {
		q.sig = q.computeSignature()
	}
	return q.sig
}

// computeSignature renders "tables|filters|payload|joins" into one
// buffer sized up front, so a signature costs two allocations: the
// buffer and the string.
func (q *Query) computeSignature() string {
	size := 3
	for _, t := range q.Tables {
		size += len(t) + 1
	}
	for _, p := range q.Filters {
		size += len(p.Table) + len(p.Column) + len(p.Op.String()) + 2
	}
	for _, c := range q.Payload {
		size += len(c.Table) + len(c.Column) + 2
	}
	for _, j := range q.Joins {
		size += len(j.LeftTable) + len(j.LeftColumn) + len(j.RightTable) + len(j.RightColumn) + 4
	}
	// appendSection needs room for a section twice over.
	buf := make([]byte, 0, 2*size)
	buf = appendSection(buf, len(q.Tables), func(buf []byte, i int) []byte {
		return append(buf, q.Tables[i]...)
	})
	buf = append(buf, '|')
	buf = appendSection(buf, len(q.Filters), func(buf []byte, i int) []byte {
		p := q.Filters[i]
		return append(appendRef(buf, p.Table, p.Column), p.Op.String()...)
	})
	buf = append(buf, '|')
	buf = appendSection(buf, len(q.Payload), func(buf []byte, i int) []byte {
		return appendRef(buf, q.Payload[i].Table, q.Payload[i].Column)
	})
	buf = append(buf, '|')
	buf = appendSection(buf, len(q.Joins), func(buf []byte, i int) []byte {
		j := q.Joins[i]
		lt, lc, rt, rc := j.LeftTable, j.LeftColumn, j.RightTable, j.RightColumn
		if rt < lt || rt == lt && rc < lc {
			lt, lc, rt, rc = rt, rc, lt, lc
		}
		return appendRef(append(appendRef(buf, lt, lc), '='), rt, rc)
	})
	return string(buf)
}

// appendSection appends the n elements render produces to buf, sorted
// and comma-separated. The elements are rendered behind the section's
// start, then appended again in sorted order and moved into place.
func appendSection(buf []byte, n int, render func(buf []byte, i int) []byte) []byte {
	var spanArr [32][2]int
	spans := spanArr[:0]
	start := len(buf)
	for i := 0; i < n; i++ {
		from := len(buf)
		buf = render(buf, i)
		spans = append(spans, [2]int{from, len(buf)})
	}
	// Insertion sort: a section holds a handful of elements.
	for i := 1; i < len(spans); i++ {
		for k := i; k > 0 && bytes.Compare(buf[spans[k][0]:spans[k][1]], buf[spans[k-1][0]:spans[k-1][1]]) < 0; k-- {
			spans[k], spans[k-1] = spans[k-1], spans[k]
		}
	}
	rendered := len(buf)
	for i, sp := range spans {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, buf[sp[0]:sp[1]]...)
	}
	return buf[:start+copy(buf[start:], buf[rendered:])]
}

func appendRef(buf []byte, table, column string) []byte {
	return append(append(append(buf, table...), '.'), column...)
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
