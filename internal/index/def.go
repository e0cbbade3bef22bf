package index

import (
	"fmt"

	"dbabandits/internal/catalog"
)

// Def is the serialisable definition of one index — exactly the inputs
// New takes. Checkpoints persist configurations as Def lists and
// rebuild them with Build/ConfigFromDefs, so the on-disk form carries
// no memoised ids or schema pointers.
type Def struct {
	Table   string
	Key     []string
	Include []string `json:",omitempty"`
}

// Build constructs the index the definition describes.
func (d Def) Build() *Index { return New(d.Table, d.Key, d.Include) }

// Defs returns the configuration's index definitions in deterministic
// (id-sorted) order.
func (c *Config) Defs() []Def {
	all := c.All()
	out := make([]Def, len(all))
	for i, ix := range all {
		out[i] = Def{
			Table:   ix.Table,
			Key:     append([]string(nil), ix.Key...),
			Include: append([]string(nil), ix.Include...),
		}
	}
	return out
}

// ConfigFromDefs rebuilds a configuration from serialised definitions.
func ConfigFromDefs(defs []Def) *Config {
	cfg := NewConfig()
	for _, d := range defs {
		cfg.Add(d.Build())
	}
	return cfg
}

// ValidDefs checks every definition against the schema: a known table,
// a non-empty duplicate-free key, and columns the table has.
func ValidDefs(schema *catalog.Schema, defs []Def) error {
	for _, d := range defs {
		meta, ok := schema.Table(d.Table)
		if !ok {
			return fmt.Errorf("index on unknown table %q", d.Table)
		}
		if err := d.Build().Valid(meta); err != nil {
			return err
		}
	}
	return nil
}
