package index

import (
	"sort"
	"strings"
	"sync"
)

// Config is a set of materialised indexes — the paper's "configuration"
// s_t. The zero value is not usable; construct with NewConfig.
type Config struct {
	byID    map[string]*Index
	byTable map[string][]*Index

	// sigs memoises TableSig per table, invalidated on Add/Drop. Lazy:
	// configs that never reach the optimiser pay nothing. TableSig reads
	// like OnTable but fills the memo, so sigMu keeps it as safe as the
	// other read methods for concurrent readers, such as two optimisers
	// pricing one Config from separate goroutines; they then share only
	// the memo, never a write to the content maps. Mutating a Config
	// while it is being read remains forbidden, exactly as for OnTable.
	sigMu sync.Mutex
	sigs  map[string]string
}

// NewConfig returns an empty configuration.
func NewConfig() *Config {
	return &Config{byID: map[string]*Index{}, byTable: map[string][]*Index{}}
}

// Clone returns an independent copy sharing the immutable *Index values.
func (c *Config) Clone() *Config {
	out := NewConfig()
	for id, ix := range c.byID {
		out.byID[id] = ix
		out.byTable[ix.Table] = append(out.byTable[ix.Table], ix)
	}
	for t := range out.byTable {
		sortIndexes(out.byTable[t])
	}
	return out
}

// Add inserts an index; it reports whether the index was new.
func (c *Config) Add(ix *Index) bool {
	id := ix.ID()
	if _, exists := c.byID[id]; exists {
		return false
	}
	c.byID[id] = ix
	c.byTable[ix.Table] = append(c.byTable[ix.Table], ix)
	sortIndexes(c.byTable[ix.Table])
	c.mutated(ix.Table)
	return true
}

// Drop removes an index by id; it reports whether it was present.
func (c *Config) Drop(id string) bool {
	ix, exists := c.byID[id]
	if !exists {
		return false
	}
	delete(c.byID, id)
	list := c.byTable[ix.Table]
	for i, cand := range list {
		if cand.ID() == id {
			c.byTable[ix.Table] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(c.byTable[ix.Table]) == 0 {
		delete(c.byTable, ix.Table)
	}
	c.mutated(ix.Table)
	return true
}

// mutated records a content change: the touched table's memoised
// signature is invalidated.
func (c *Config) mutated(table string) {
	if c.sigs != nil {
		c.sigMu.Lock()
		delete(c.sigs, table)
		c.sigMu.Unlock()
	}
}

// TableSig returns a canonical content signature of the configuration's
// indexes on one table: the sorted index ids joined by an unprintable
// separator, "" for a table with no indexes (or a nil Config). Equal
// signatures mean equal index sets, so the optimiser's plan cache can
// recognise that two configurations are indistinguishable for a query
// touching only this table. Computed lazily and memoised until the next
// Add/Drop on the table; safe for concurrent readers.
func (c *Config) TableSig(table string) string {
	if c == nil {
		return ""
	}
	list := c.byTable[table]
	if len(list) == 0 {
		return ""
	}
	c.sigMu.Lock()
	defer c.sigMu.Unlock()
	if s, ok := c.sigs[table]; ok {
		return s
	}
	n := 0
	for _, ix := range list {
		n += len(ix.ID()) + 1
	}
	var b strings.Builder
	b.Grow(n - 1)
	for i, ix := range list {
		if i > 0 {
			b.WriteByte(tableSigSep)
		}
		b.WriteString(ix.ID())
	}
	s := b.String()
	if c.sigs == nil {
		c.sigs = map[string]string{}
	}
	c.sigs[table] = s
	return s
}

// tableSigSep separates index ids inside TableSig values; index ids are
// built from identifier characters and "( ),", so a control byte can
// never collide.
const tableSigSep = 0x1f

// Has reports whether the configuration contains the index id.
func (c *Config) Has(id string) bool {
	_, ok := c.byID[id]
	return ok
}

// OnTable returns the indexes on the table, in deterministic order.
func (c *Config) OnTable(table string) []*Index { return c.byTable[table] }

// All returns every index in deterministic order.
func (c *Config) All() []*Index {
	out := make([]*Index, 0, len(c.byID))
	for _, ix := range c.byID {
		out = append(out, ix)
	}
	sortIndexes(out)
	return out
}

// Len returns the number of indexes.
func (c *Config) Len() int { return len(c.byID) }

// Diff returns the indexes present in c but not in old — the set the
// system must materialise when transitioning old -> c (s_t \ s_{t-1}).
func (c *Config) Diff(old *Config) []*Index {
	var out []*Index
	for id, ix := range c.byID {
		if old == nil || !old.Has(id) {
			out = append(out, ix)
		}
	}
	sortIndexes(out)
	return out
}

// DiffBoth computes both sides of the transition old -> c: the indexes
// to materialise (Diff) and the ids to drop (in old, not c; sorted).
func (c *Config) DiffBoth(old *Config) (create []*Index, drop []string) {
	create = c.Diff(old)
	if old != nil {
		for id := range old.byID {
			if !c.Has(id) {
				drop = append(drop, id)
			}
		}
		sort.Strings(drop)
	}
	return create, drop
}

// EachID calls f for every index id in unspecified order, without
// allocating the sorted slice IDs builds — for callers filling a set.
func (c *Config) EachID(f func(id string)) {
	for id := range c.byID {
		f(id)
	}
}

// IDs returns the sorted index ids; convenient in tests and logs.
func (c *Config) IDs() []string {
	out := make([]string, 0, len(c.byID))
	for id := range c.byID {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// sortIndexes orders a list by ID. Insertion sort, not sort.Slice: the
// lists are per-table index sets (a handful of entries, usually already
// nearly sorted — Add appends one element to a sorted list), and
// sort.Slice's reflect.Swapper + closure were ~23 allocs per warm
// recommend round in BenchmarkTunerRecommendSteadyState. IDs are unique,
// so the resulting order is identical to the previous implementation.
func sortIndexes(list []*Index) {
	for i := 1; i < len(list); i++ {
		ix := list[i]
		id := ix.ID()
		j := i - 1
		for j >= 0 && list[j].ID() > id {
			list[j+1] = list[j]
			j--
		}
		list[j+1] = ix
	}
}
