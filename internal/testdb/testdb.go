// Package testdb provides a small shared fixture database used by unit
// and integration tests across the engine, optimiser, tuner and advisor
// packages: a star schema with one fact table carrying uniform, zipfian
// and correlated columns, plus two dimensions.
package testdb

import (
	"dbabandits/internal/catalog"
	"dbabandits/internal/datagen"
	"dbabandits/internal/storage"
)

// Schema returns a fresh copy of the fixture schema (copies matter:
// datagen.Build mutates stats and row counts).
func Schema() *catalog.Schema {
	cust := &catalog.Table{
		Name:     "customer",
		BaseRows: 500,
		PK:       []string{"c_id"},
		Columns: []catalog.Column{
			{Name: "c_id", Kind: catalog.KindInt, Dist: catalog.DistSequential},
			{Name: "c_nation", Kind: catalog.KindInt, Dist: catalog.DistUniform, DomainLo: 0, DomainHi: 24},
			{Name: "c_segment", Kind: catalog.KindInt, Dist: catalog.DistUniform, DomainLo: 0, DomainHi: 4},
			{Name: "c_name", Kind: catalog.KindString, Dist: catalog.DistUniform, DomainLo: 0, DomainHi: 499},
		},
	}
	part := &catalog.Table{
		Name:     "part",
		BaseRows: 400,
		PK:       []string{"p_id"},
		Columns: []catalog.Column{
			{Name: "p_id", Kind: catalog.KindInt, Dist: catalog.DistSequential},
			{Name: "p_brand", Kind: catalog.KindInt, Dist: catalog.DistUniform, DomainLo: 0, DomainHi: 24},
			{Name: "p_size", Kind: catalog.KindInt, Dist: catalog.DistUniform, DomainLo: 1, DomainHi: 50},
		},
	}
	orders := &catalog.Table{
		Name:     "orders",
		BaseRows: 8000,
		PK:       []string{"o_id"},
		Columns: []catalog.Column{
			{Name: "o_id", Kind: catalog.KindInt, Dist: catalog.DistSequential},
			{Name: "o_custkey", Kind: catalog.KindInt, Dist: catalog.DistForeignKey, RefTable: "customer", RefCol: "c_id"},
			{Name: "o_partkey", Kind: catalog.KindInt, Dist: catalog.DistForeignKeyZipf, ZipfS: 1.5, RefTable: "part", RefCol: "p_id"},
			{Name: "o_date", Kind: catalog.KindDate, Dist: catalog.DistUniform, DomainLo: 0, DomainHi: 2000},
			{Name: "o_status", Kind: catalog.KindInt, Dist: catalog.DistZipf, ZipfS: 2, DomainLo: 0, DomainHi: 49},
			{Name: "o_priority", Kind: catalog.KindInt, Dist: catalog.DistCorrelated, CorrWith: "o_status", DomainLo: 0, DomainHi: 49, CorrNoise: 1},
			{Name: "o_total", Kind: catalog.KindDecimal, Dist: catalog.DistUniform, DomainLo: 1, DomainHi: 100000},
			{Name: "o_comment", Kind: catalog.KindString, Dist: catalog.DistUniform, DomainLo: 0, DomainHi: 9999},
		},
	}
	s := catalog.MustSchema("testdb", cust, part, orders)
	s.FKs = []catalog.ForeignKey{
		{Table: "orders", Column: "o_custkey", RefTable: "customer", RefColumn: "c_id"},
		{Table: "orders", Column: "o_partkey", RefTable: "part", RefColumn: "p_id"},
	}
	return s
}

// Build materialises the fixture at the given seed with default options.
func Build(seed int64) (*catalog.Schema, *storage.Database) {
	return BuildScaled(seed, 0, 0)
}

// BuildScaled materialises the fixture with a scale factor and stored-row
// cap, exercising the row-multiplier path. It panics on an error: the
// fixture schema is static, so an error is a mistake in this file.
func BuildScaled(seed int64, sf float64, cap int) (*catalog.Schema, *storage.Database) {
	s := Schema()
	db, err := datagen.Build(s, datagen.Options{Seed: seed, ScaleFactor: sf, MaxStoredRows: cap})
	if err != nil {
		panic(err)
	}
	return s, db
}
