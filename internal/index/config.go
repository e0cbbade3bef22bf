package index

import "sort"

// Config is a set of materialised indexes — the paper's "configuration"
// s_t. The zero value is not usable; construct with NewConfig. Reads
// never write, so concurrent readers are safe while nobody mutates it.
type Config struct {
	byID    map[string]*Index
	byTable map[string][]*Index
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
	return true
}

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
