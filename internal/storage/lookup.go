package storage

import (
	"math/bits"
	"sync"
)

// denseSpanPerRow bounds direct addressing: a column whose value span
// max−min is at most this many times its row count gets one bucket per
// value in [min, max], so its offset table costs at most four int32s
// per row beyond the row list itself.
const denseSpanPerRow = 4

// Lookup maps a stored column value to the rows holding it: Bucket(v)
// names the value's bucket and Rows(b) lists its rows. The buckets are
// in compressed sparse row form: the rows of bucket b are
// rows[start[b]:start[b+1]], in ascending row-id order.
//
// A column whose span is at most denseSpanPerRow times its rows finds
// its bucket by direct offset v−min. Any other column finds it through
// an open-addressing table with linear probing, sized to more than
// twice the rows and hashed by a fixed multiplier, so the same values
// probe the same slots in every process. None of the slices hold
// pointers, so the collector never scans them.
//
// A Lookup is built once per (table, column), on the column's first
// Table.Lookup call, and is read-only afterwards.
type Lookup struct {
	min     int64        // direct offset: the value of bucket 0
	buckets uint64       // len(start) - 1
	table   []lookupSlot // hashed: the open-addressing table; nil if direct
	shift   uint         // hashed: 64 - log2(len(table))
	mask    uint64       // hashed: len(table) - 1
	start   []int32
	rows    []int32
}

// hashMul is the fixed multiplier of the hashed lookup's hash.
const hashMul = 0x9E3779B97F4A7C15

// lookupSlot is one hash-table entry; bucket holds the bucket index
// plus one, and 0 marks an empty slot.
type lookupSlot struct {
	value  int64
	bucket int32
}

// Bucket returns the bucket of the rows whose value is v, in
// [0, Buckets()), or -1 when no row holds v. It sits exactly at the
// compiler's inlining budget, which is why it repeats slot's probe
// instead of calling it: inlined into Execute's probe loop, it runs
// that loop in about two thirds of the time a call per probe costs.
func (l *Lookup) Bucket(v int64) int {
	// uint64(v-min) wraps for v below min, so the one unsigned compare
	// below rejects values on either side of [min, max].
	b := uint64(v - l.min)
	if l.table != nil {
		i := uint64(v) * hashMul >> l.shift
		for l.table[i].bucket != 0 && l.table[i].value != v {
			i = (i + 1) & l.mask
		}
		b = uint64(l.table[i].bucket) - 1
	}
	if b >= l.buckets {
		return -1
	}
	return int(b)
}

// Rows returns the rows of bucket b, ascending; empty for a value in a
// direct-offset lookup's range that no row holds. The caller must not
// modify the returned slice.
func (l *Lookup) Rows(b int) []int32 { return l.rows[l.start[b]:l.start[b+1]] }

// Buckets returns the number of buckets.
func (l *Lookup) Buckets() int { return int(l.buckets) }

// newLookup indexes every row of col by its value.
func newLookup(col []int64) *Lookup {
	l := &Lookup{rows: make([]int32, len(col))}
	if len(col) == 0 {
		l.start = []int32{0}
		return l
	}
	lo, hi := col[0], col[0]
	for _, v := range col {
		lo, hi = min(lo, v), max(hi, v)
	}
	// hi-lo taken unsigned is the exact span even where the signed
	// difference overflows; the bound is compared unsigned too, so a
	// span near 2^64 never reads as dense.
	if span := uint64(hi - lo); span <= denseSpanPerRow*uint64(len(col)) {
		l.min = lo
		l.buildDense(col, int(span)+1)
	} else {
		l.buildHashed(col)
	}
	l.buckets = uint64(len(l.start) - 1)
	return l
}

// buildDense fills a direct-offset lookup with one bucket per value in
// [min, min+buckets).
func (l *Lookup) buildDense(col []int64, buckets int) {
	l.start = make([]int32, buckets+1)
	for _, v := range col {
		l.start[v-l.min+1]++
	}
	for b := 1; b < len(l.start); b++ {
		l.start[b] += l.start[b-1]
	}
	// Place each row at its bucket's cursor start[b], which leaves
	// start[b] at bucket b+1's first slot; shifting start right by one
	// restores the offsets.
	for r, v := range col {
		b := v - l.min
		l.rows[l.start[b]] = int32(r)
		l.start[b]++
	}
	copy(l.start[1:], l.start)
	l.start[0] = 0
}

// buildHashed fills a hashed lookup with one bucket per distinct value.
func (l *Lookup) buildHashed(col []int64) {
	// A power of two above 2*len(col) keeps the table under half full.
	logSize := bits.Len(uint(len(col))) + 1
	l.table = make([]lookupSlot, 1<<logSize)
	l.shift = uint(64 - logSize)
	l.mask = uint64(len(l.table) - 1)
	// First pass: assign buckets and count each one's rows into
	// start[b+1].
	l.start = append(l.start[:0], 0)
	of := make([]int32, len(col)) // bucket of each row
	for r, v := range col {
		i := l.slot(v)
		if l.table[i].bucket == 0 {
			l.table[i] = lookupSlot{value: v, bucket: int32(len(l.start))}
			l.start = append(l.start, 0)
		}
		b := l.table[i].bucket - 1
		l.start[b+1]++
		of[r] = b
	}
	for b := 1; b < len(l.start); b++ {
		l.start[b] += l.start[b-1]
	}
	for r, b := range of {
		l.rows[l.start[b]] = int32(r)
		l.start[b]++
	}
	copy(l.start[1:], l.start)
	l.start[0] = 0
}

// slot returns the table position that holds v, or the empty position
// where v would go.
func (l *Lookup) slot(v int64) uint64 {
	i := uint64(v) * hashMul >> l.shift
	for l.table[i].bucket != 0 && l.table[i].value != v {
		i = (i + 1) & l.mask
	}
	return i
}

// lookups holds a table's per-column lookups, each built on first use.
type lookups struct {
	once sync.Once
	cols []lazyLookup
}

type lazyLookup struct {
	once sync.Once
	l    *Lookup
}

// Lookup returns the lookup from the named column's values to its
// stored rows, building it on the column's first call; concurrent
// first calls build it once. It relies on stored columns never
// changing (see Table).
func (t *Table) Lookup(column string) (*Lookup, bool) {
	ci := t.Meta.ColumnIndex(column)
	if ci < 0 {
		return nil, false
	}
	t.lookups.once.Do(func() { t.lookups.cols = make([]lazyLookup, len(t.Cols)) })
	c := &t.lookups.cols[ci]
	c.once.Do(func() { c.l = newLookup(t.Cols[ci][:t.StoredRows]) })
	return c.l, true
}
