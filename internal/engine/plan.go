package engine

import (
	"fmt"
	"strings"

	"dbabandits/internal/index"
	"dbabandits/internal/query"
)

// AccessKind discriminates how a base table is read.
type AccessKind int

const (
	AccessSeqScan AccessKind = iota
	AccessIndexSeek
	AccessIndexOnly     // covering index, leaf-level scan or seek
	AccessClusteredSeek // primary-key (clustered) seek, used by NL joins
)

// String implements fmt.Stringer.
func (k AccessKind) String() string {
	switch k {
	case AccessSeqScan:
		return "SeqScan"
	case AccessIndexSeek:
		return "IndexSeek"
	case AccessIndexOnly:
		return "IndexOnly"
	case AccessClusteredSeek:
		return "ClusteredSeek"
	default:
		return fmt.Sprintf("access(%d)", int(k))
	}
}

// Access describes the chosen access path for one base table.
type Access struct {
	Table string
	Kind  AccessKind
	// Index is the secondary index used (nil for SeqScan and
	// ClusteredSeek).
	Index *index.Index
	// EqLen/HasRange describe how much of the index key the filter
	// predicates bind (see index.SeekPrefix).
	EqLen    int
	HasRange bool
	// Covering is true when the index contains every referenced column of
	// the table, eliminating base-table fetches.
	Covering bool
}

// String renders the access path.
func (a Access) String() string {
	if a.Index == nil {
		return fmt.Sprintf("%s(%s)", a.Kind, a.Table)
	}
	return fmt.Sprintf("%s(%s via %s)", a.Kind, a.Table, a.Index.ID())
}

// JoinAlgo is the physical join algorithm.
type JoinAlgo int

const (
	JoinHash JoinAlgo = iota
	JoinIndexNL
)

// String implements fmt.Stringer.
func (j JoinAlgo) String() string {
	if j == JoinIndexNL {
		return "IndexNLJoin"
	}
	return "HashJoin"
}

// JoinStep joins one more table into the running pipeline.
type JoinStep struct {
	// Pred is the equi-join predicate connecting the new table to a table
	// already in the pipeline.
	Pred query.Join
	// OuterTable/OuterColumn identify the pipeline side of the join;
	// InnerTable/InnerColumn the newly joined side (already normalised
	// from Pred so the executor does not re-derive sides).
	OuterTable, OuterColumn string
	InnerTable, InnerColumn string
	// Inner is the access path for the inner table. For JoinIndexNL the
	// inner access must be an index (secondary or clustered) whose leading
	// key column is InnerColumn.
	Inner Access
	Algo  JoinAlgo
}

// Plan is a left-deep join plan: a driver access path plus join steps.
type Plan struct {
	Query  *query.Query
	Driver Access
	Steps  []JoinStep

	// EstRows and EstCost carry the optimiser's estimates for the final
	// output cardinality and total plan time; the executor ignores them.
	EstRows float64
	EstCost float64
}

// String renders the plan compactly, e.g.
// "SeqScan(orders) -> HashJoin[IndexSeek(customer via ...)]".
func (p *Plan) String() string {
	var b strings.Builder
	b.WriteString(p.Driver.String())
	for _, s := range p.Steps {
		fmt.Fprintf(&b, " -> %s[%s on %s.%s=%s.%s]",
			s.Algo, s.Inner, s.OuterTable, s.OuterColumn, s.InnerTable, s.InnerColumn)
	}
	return b.String()
}
