// Package datagen materialises benchmark databases: it draws physical
// rows for every column according to the column's declared distribution,
// fills in the optimiser-visible statistics from the stored data, and
// applies scale-factor row multipliers.
//
// Generation is deterministic: each column's stream is seeded from the
// experiment seed plus the table and column names, so adding a column
// never perturbs its neighbours.
package datagen

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"dbabandits/internal/catalog"
	"dbabandits/internal/storage"
)

// Options configure database materialisation.
type Options struct {
	// ScaleFactor scales every non-fixed table's BaseRows. 1.0 mirrors the
	// paper's SF 1; the experiments use 1, 10 and 100.
	ScaleFactor float64
	// MaxStoredRows caps physical rows per table; larger logical tables
	// get a proportional row multiplier. Zero means the default (20000).
	MaxStoredRows int
	// Seed drives all row generation.
	Seed int64
}

const defaultMaxStoredRows = 20000

// Build materialises the schema into a physical database and fills in
// per-column statistics (min/max/NDV from stored data) and logical row
// counts on the catalog. The schema is mutated (stats, RowCount) so that
// optimiser and tuner components can read statistics from the catalog.
func Build(schema *catalog.Schema, opts Options) (*storage.Database, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if opts.ScaleFactor <= 0 {
		opts.ScaleFactor = 1
	}
	cap := opts.MaxStoredRows
	if cap <= 0 {
		cap = defaultMaxStoredRows
	}

	db := &storage.Database{Schema: schema, Tables: make(map[string]*storage.Table, len(schema.Tables))}

	// Determine logical and stored sizes first (needed before FK columns
	// reference other tables' stored rows).
	for _, t := range schema.Tables {
		base := t.BaseRows
		if base <= 0 {
			return nil, fmt.Errorf("datagen: table %q has no BaseRows", t.Name)
		}
		logical := base
		if !t.FixedSize {
			logical = int64(math.Round(float64(base) * opts.ScaleFactor))
			if logical < 1 {
				logical = 1
			}
		}
		t.RowCount = logical
		stored := logical
		if stored > int64(cap) {
			stored = int64(cap)
		}
		t.SampleMult = float64(logical) / float64(stored)
		db.Tables[t.Name] = &storage.Table{
			Meta:       t,
			StoredRows: int(stored),
			Mult:       t.SampleMult,
			Cols:       make([][]int64, len(t.Columns)),
		}
	}

	// Generate columns in dependency order: FK columns need the referenced
	// table's stored key column; correlated columns need their source
	// column (which must precede them in the table definition).
	// Two passes suffice because benchmark FKs never chain through other
	// FK columns' values (they reference sequential PKs).
	for pass := 0; pass < 2; pass++ {
		for _, t := range schema.Tables {
			pt := db.Tables[t.Name]
			for ci := range t.Columns {
				col := &t.Columns[ci]
				if pt.Cols[ci] != nil {
					continue
				}
				needsRef := col.Dist == catalog.DistForeignKey || col.Dist == catalog.DistForeignKeyZipf
				if needsRef && pass == 0 {
					// Referenced table's PK is a sequential column
					// generated in pass 0; FK columns wait for pass 1.
					continue
				}
				data, err := generateColumn(db, t, pt, ci, opts.Seed)
				if err != nil {
					return nil, err
				}
				pt.Cols[ci] = data
			}
		}
	}

	// Fill statistics from stored data.
	for _, t := range schema.Tables {
		pt := db.Tables[t.Name]
		for ci := range t.Columns {
			if pt.Cols[ci] == nil {
				return nil, fmt.Errorf("datagen: column %s.%s was never generated", t.Name, t.Columns[ci].Name)
			}
			t.Columns[ci].Stats = computeStats(pt.Cols[ci])
		}
	}
	return db, nil
}

func generateColumn(db *storage.Database, t *catalog.Table, pt *storage.Table, ci int, seed int64) ([]int64, error) {
	col := &t.Columns[ci]
	n := pt.StoredRows
	rng := rand.New(rand.NewSource(columnSeed(seed, t.Name, col.Name)))
	data := make([]int64, n)

	switch col.Dist {
	case catalog.DistSequential:
		for i := range data {
			data[i] = int64(i + 1)
		}

	case catalog.DistUniform:
		lo, hi := col.DomainLo, col.DomainHi
		if hi < lo {
			return nil, fmt.Errorf("datagen: %s.%s empty domain [%d,%d]", t.Name, col.Name, lo, hi)
		}
		span := hi - lo + 1
		for i := range data {
			data[i] = lo + rng.Int63n(span)
		}

	case catalog.DistZipf:
		lo, hi := col.DomainLo, col.DomainHi
		if hi < lo {
			return nil, fmt.Errorf("datagen: %s.%s empty domain [%d,%d]", t.Name, col.Name, lo, hi)
		}
		z, err := newZipf(rng, col.ZipfS, hi-lo+1)
		if err != nil {
			return nil, fmt.Errorf("datagen: %s.%s: %w", t.Name, col.Name, err)
		}
		for i := range data {
			data[i] = lo + z.Next()
		}

	case catalog.DistForeignKey, catalog.DistForeignKeyZipf:
		ref, ok := db.Table(col.RefTable)
		if !ok {
			return nil, fmt.Errorf("datagen: %s.%s references missing table %q", t.Name, col.Name, col.RefTable)
		}
		refCol, ok := ref.Column(col.RefCol)
		if !ok {
			return nil, fmt.Errorf("datagen: %s.%s references missing column %s.%s", t.Name, col.Name, col.RefTable, col.RefCol)
		}
		if len(refCol) == 0 {
			return nil, fmt.Errorf("datagen: %s.%s references empty column %s.%s", t.Name, col.Name, col.RefTable, col.RefCol)
		}
		if col.Dist == catalog.DistForeignKey {
			for i := range data {
				data[i] = refCol[rng.Intn(len(refCol))]
			}
		} else {
			s := col.ZipfS
			if s <= 0 {
				s = 1.2
			}
			z, err := newZipf(rng, s, int64(len(refCol)))
			if err != nil {
				return nil, fmt.Errorf("datagen: %s.%s: %w", t.Name, col.Name, err)
			}
			// Shuffle rank->row mapping so the "hot" dimension rows are
			// not always the first physical rows.
			perm := rng.Perm(len(refCol))
			for i := range data {
				data[i] = refCol[perm[z.Next()]]
			}
		}

	case catalog.DistCorrelated:
		srcIdx := t.ColumnIndex(col.CorrWith)
		if srcIdx < 0 {
			return nil, fmt.Errorf("datagen: %s.%s correlates with missing column %q", t.Name, col.Name, col.CorrWith)
		}
		src := pt.Cols[srcIdx]
		if src == nil {
			return nil, fmt.Errorf("datagen: %s.%s correlates with %q which is generated later; reorder columns", t.Name, col.Name, col.CorrWith)
		}
		srcCol := t.Columns[srcIdx]
		srcLo, srcHi := observedDomain(src, srcCol)
		lo, hi := col.DomainLo, col.DomainHi
		if hi < lo {
			return nil, fmt.Errorf("datagen: %s.%s empty domain [%d,%d]", t.Name, col.Name, lo, hi)
		}
		srcSpan := float64(srcHi-srcLo) + 1
		span := float64(hi-lo) + 1
		noise := col.CorrNoise
		for i := range data {
			frac := (float64(src[i]-srcLo) + 0.5) / srcSpan
			v := lo + int64(frac*span)
			if noise > 0 {
				v += rng.Int63n(2*noise+1) - noise
			}
			if v < lo {
				v = lo
			}
			if v > hi {
				v = hi
			}
			data[i] = v
		}

	default:
		return nil, fmt.Errorf("datagen: %s.%s has unknown distribution %d", t.Name, col.Name, col.Dist)
	}
	return data, nil
}

func observedDomain(data []int64, col catalog.Column) (int64, int64) {
	if col.DomainHi >= col.DomainLo && col.Dist != catalog.DistSequential &&
		col.Dist != catalog.DistForeignKey && col.Dist != catalog.DistForeignKeyZipf {
		return col.DomainLo, col.DomainHi
	}
	lo, hi := data[0], data[0]
	for _, v := range data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

func computeStats(data []int64) catalog.ColumnStats {
	if len(data) == 0 {
		return catalog.ColumnStats{}
	}
	min, max := data[0], data[0]
	distinct := make(map[int64]struct{}, len(data)/4+1)
	for _, v := range data {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		distinct[v] = struct{}{}
	}
	return catalog.ColumnStats{Min: min, Max: max, NDV: int64(len(distinct))}
}

func columnSeed(seed int64, table, column string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%s", seed, table, column)
	return int64(h.Sum64() & math.MaxInt64)
}
