// Package query defines the structured representation of analytical
// queries shared by the execution engine, the optimiser, the bandit tuner
// and the baseline advisors. A query is a conjunctive select-project-join
// block: base-table filter predicates, equi-join predicates, and a payload
// (projected columns). This mirrors what the paper's tuner extracts from
// monitored SQL: "query predicates, payload, etc." (Section IV).
package query

import (
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

// Signature returns a canonical string identifying the query's template
// shape (tables, predicate columns and operators, payload), ignoring the
// literal constants. The query store uses it to recognise returning
// templates even when TemplateID is absent. The string is memoised on
// the query: instances are immutable once instantiated, and the tuner's
// store and arm generator each ask once per round.
func (q *Query) Signature() string {
	if q.sig == "" {
		q.sig = q.computeSignature()
	}
	return q.sig
}

func (q *Query) computeSignature() string {
	var b strings.Builder
	tabs := append([]string(nil), q.Tables...)
	sort.Strings(tabs)
	b.WriteString(strings.Join(tabs, ","))
	b.WriteByte('|')
	preds := make([]string, len(q.Filters))
	for i, p := range q.Filters {
		preds[i] = fmt.Sprintf("%s.%s%s", p.Table, p.Column, p.Op)
	}
	sort.Strings(preds)
	b.WriteString(strings.Join(preds, ","))
	b.WriteByte('|')
	pay := make([]string, len(q.Payload))
	for i, c := range q.Payload {
		pay[i] = c.Table + "." + c.Column
	}
	sort.Strings(pay)
	b.WriteString(strings.Join(pay, ","))
	return b.String()
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
