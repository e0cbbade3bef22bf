package query

import "fmt"

// UpdateKind distinguishes the two update-shaped statement classes of the
// HTAP regime.
type UpdateKind int

const (
	// UpdateInsert models an INSERT batch: every secondary index on the
	// table must absorb one new entry per row.
	UpdateInsert UpdateKind = iota
	// UpdateModify models an UPDATE batch touching a column subset: only
	// indexes containing a written column pay maintenance (delete + insert
	// of the entry).
	UpdateModify
)

// String implements fmt.Stringer.
func (k UpdateKind) String() string {
	switch k {
	case UpdateInsert:
		return "INSERT"
	case UpdateModify:
		return "UPDATE"
	default:
		return fmt.Sprintf("updatekind(%d)", int(k))
	}
}

// Update is one update-shaped statement (an INSERT or UPDATE batch)
// against a base table. The HTAP workload regime interleaves rounds
// carrying these with the purely analytical rounds; the environment
// prices the index maintenance they induce against the round's reward.
// Like queries, updates are structural: the simulator needs only the
// table, the written columns and the affected row volume.
type Update struct {
	// Table is the target base table (a fact table in the shipped
	// sequencer).
	Table string
	// Kind selects INSERT or UPDATE semantics.
	Kind UpdateKind
	// Rows is the logical number of rows the statement writes.
	Rows float64
	// Columns are the written columns of an UPDATE statement; empty for
	// INSERT (which implicitly writes every column).
	Columns []string
}

// Touches reports whether the statement forces maintenance on an index
// with the given key+include column set: INSERTs touch every index on the
// table, UPDATEs only those containing a written column.
func (u Update) Touches(indexColumns []string) bool {
	if u.Kind == UpdateInsert {
		return true
	}
	for _, c := range u.Columns {
		for _, ic := range indexColumns {
			if c == ic {
				return true
			}
		}
	}
	return false
}
