// Package catalog defines logical database schemas: tables, columns,
// keys, and the per-column statistics that the (deliberately naive) query
// optimiser consumes. All values are encoded as int64; strings and dates
// in the benchmark schemas are dictionary- or epoch-encoded by the data
// generators, which is invisible to every consumer in this repository
// because predicates compare encoded values only.
package catalog

import (
	"fmt"
	"sort"
)

// ColumnKind describes the logical type of a column. Every kind is stored
// as int64; the kind matters only for width accounting and for the data
// generators.
type ColumnKind int

const (
	KindInt ColumnKind = iota
	KindDate
	KindString // dictionary-encoded
	KindDecimal
)

// String implements fmt.Stringer.
func (k ColumnKind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindDate:
		return "date"
	case KindString:
		return "string"
	case KindDecimal:
		return "decimal"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// WidthBytes returns the assumed on-disk width of one value of this kind,
// used by the page-count and index-size models.
func (k ColumnKind) WidthBytes() int64 {
	switch k {
	case KindString:
		return 24 // average var-string payload
	case KindDecimal:
		return 8
	case KindDate:
		return 4
	default:
		return 8
	}
}

// Distribution identifies the generator family of a column. The optimiser
// never sees this; only datagen and tests do.
type Distribution int

const (
	DistUniform Distribution = iota
	DistZipf
	DistSequential     // 1..N (primary keys)
	DistForeignKey     // uniform draw over a referenced table's key
	DistForeignKeyZipf // zipfian draw over a referenced table's key
	DistCorrelated     // value derived from another column + noise
)

// ColumnStats is the single-column statistics view exposed to the
// optimiser: min, max, and number of distinct values. Commercial systems
// have richer histograms; the paper's point is that even those retain
// uniformity and independence assumptions, which this triple forces.
type ColumnStats struct {
	Min, Max int64
	NDV      int64 // number of distinct values (logical)
}

// Column is one attribute of a table.
type Column struct {
	Name string
	Kind ColumnKind

	// Generator configuration (ground truth about the data).
	Dist      Distribution
	DomainLo  int64   // uniform/zipf domain lower bound
	DomainHi  int64   // uniform/zipf domain upper bound (inclusive)
	ZipfS     float64 // zipf exponent when Dist is DistZipf/DistForeignKeyZipf
	RefTable  string  // for FK distributions
	RefCol    string
	CorrWith  string // for DistCorrelated: source column in same table
	CorrNoise int64  // +- noise range applied to correlated values

	// Stats visible to the optimiser (populated by datagen.Build).
	Stats ColumnStats
}

// Table is a logical table.
type Table struct {
	Name     string
	Columns  []Column
	RowCount int64 // logical row count at the configured scale factor
	PK       []string
	// BaseRows is the row count at scale factor 1; datagen derives
	// RowCount from it. Fixed-size tables (e.g. TPC-H nation/region) set
	// FixedSize and keep BaseRows at any scale factor.
	BaseRows  int64
	FixedSize bool
	// SampleMult is the physical-row multiplier (logical rows / stored
	// rows) set by datagen. Column NDV statistics are computed on the
	// stored sample, so cardinality estimation over joins must divide by
	// the smaller side's multiplier to stay consistent with the sampled
	// ground truth (see optimizer.JoinCardinality). 0 means 1.
	SampleMult float64

	colIdx map[string]int
}

// Column returns the column definition by name.
func (t *Table) Column(name string) (*Column, bool) {
	if t.colIdx == nil {
		t.buildIndex()
	}
	i, ok := t.colIdx[name]
	if !ok {
		return nil, false
	}
	return &t.Columns[i], true
}

// ColumnIndex returns the positional index of a column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if t.colIdx == nil {
		t.buildIndex()
	}
	if i, ok := t.colIdx[name]; ok {
		return i
	}
	return -1
}

func (t *Table) buildIndex() {
	t.colIdx = make(map[string]int, len(t.Columns))
	for i := range t.Columns {
		t.colIdx[t.Columns[i].Name] = i
	}
}

// RowWidthBytes returns the assumed width of one row.
func (t *Table) RowWidthBytes() int64 {
	var w int64
	for i := range t.Columns {
		w += t.Columns[i].Kind.WidthBytes()
	}
	if w < 8 {
		w = 8
	}
	return w
}

// SizeBytes returns the logical heap size of the table.
func (t *Table) SizeBytes() int64 { return t.RowCount * t.RowWidthBytes() }

// ForeignKey declares that Table.Column references RefTable.RefColumn.
type ForeignKey struct {
	Table, Column       string
	RefTable, RefColumn string
}

// Schema is a named set of tables plus foreign keys.
type Schema struct {
	Name   string
	Tables []*Table
	FKs    []ForeignKey

	tblIdx map[string]int
}

// NewSchema builds a schema and validates table-name uniqueness.
func NewSchema(name string, tables ...*Table) (*Schema, error) {
	s := &Schema{Name: name, Tables: tables, tblIdx: make(map[string]int, len(tables))}
	for i, t := range tables {
		if _, dup := s.tblIdx[t.Name]; dup {
			return nil, fmt.Errorf("catalog: duplicate table %q in schema %q", t.Name, name)
		}
		s.tblIdx[t.Name] = i
		// Built here, not on first lookup, so goroutines sharing the
		// schema (fleet tenants, concurrent Execute calls) only read it.
		t.buildIndex()
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; used by the static
// benchmark definitions whose validity is covered by tests.
func MustSchema(name string, tables ...*Table) *Schema {
	s, err := NewSchema(name, tables...)
	if err != nil {
		panic(err)
	}
	return s
}

// Table looks up a table by name.
func (s *Schema) Table(name string) (*Table, bool) {
	if s.tblIdx == nil {
		s.tblIdx = make(map[string]int, len(s.Tables))
		for i, t := range s.Tables {
			s.tblIdx[t.Name] = i
		}
	}
	i, ok := s.tblIdx[name]
	if !ok {
		return nil, false
	}
	return s.Tables[i], true
}

// MustTable is Table that panics when the table is missing.
func (s *Schema) MustTable(name string) *Table {
	t, ok := s.Table(name)
	if !ok {
		panic(fmt.Sprintf("catalog: no table %q in schema %q", name, s.Name))
	}
	return t
}

// DataSizeBytes returns the total logical heap size across tables; the
// experiments grant the tuners a memory budget of 1x this value.
func (s *Schema) DataSizeBytes() int64 {
	var total int64
	for _, t := range s.Tables {
		total += t.SizeBytes()
	}
	return total
}

// Validate checks referential integrity of FK declarations and PK columns.
func (s *Schema) Validate() error {
	for _, t := range s.Tables {
		for _, pk := range t.PK {
			if _, ok := t.Column(pk); !ok {
				return fmt.Errorf("catalog: table %q PK column %q missing", t.Name, pk)
			}
		}
		seen := map[string]bool{}
		for i := range t.Columns {
			if seen[t.Columns[i].Name] {
				return fmt.Errorf("catalog: table %q duplicate column %q", t.Name, t.Columns[i].Name)
			}
			seen[t.Columns[i].Name] = true
		}
	}
	for _, fk := range s.FKs {
		t, ok := s.Table(fk.Table)
		if !ok {
			return fmt.Errorf("catalog: FK from missing table %q", fk.Table)
		}
		if _, ok := t.Column(fk.Column); !ok {
			return fmt.Errorf("catalog: FK from missing column %s.%s", fk.Table, fk.Column)
		}
		rt, ok := s.Table(fk.RefTable)
		if !ok {
			return fmt.Errorf("catalog: FK to missing table %q", fk.RefTable)
		}
		if _, ok := rt.Column(fk.RefColumn); !ok {
			return fmt.Errorf("catalog: FK to missing column %s.%s", fk.RefTable, fk.RefColumn)
		}
	}
	return nil
}

// SortedTableNames returns table names in deterministic order.
func (s *Schema) SortedTableNames() []string {
	names := make([]string, len(s.Tables))
	for i, t := range s.Tables {
		names[i] = t.Name
	}
	sort.Strings(names)
	return names
}
