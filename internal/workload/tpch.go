package workload

import (
	"dbabandits/internal/catalog"
	"dbabandits/internal/query"
)

// Helper constructors keeping the template tables readable.

func eqd(t, c string) PredSpec { return PredSpec{Table: t, Column: c, Kind: PredEqData} }
func rngf(t, c string, f float64) PredSpec {
	return PredSpec{Table: t, Column: c, Kind: PredRangeFrac, Frac: f}
}
func ltf(t, c string, f float64) PredSpec {
	return PredSpec{Table: t, Column: c, Kind: PredLtFrac, Frac: f}
}
func gtf(t, c string, f float64) PredSpec {
	return PredSpec{Table: t, Column: c, Kind: PredGtFrac, Frac: f}
}
func pay(t, c string) query.ColumnRef { return query.ColumnRef{Table: t, Column: c} }
func jn(lt, lc, rt, rc string) query.Join {
	return query.Join{LeftTable: lt, LeftColumn: lc, RightTable: rt, RightColumn: rc}
}

// TPCH returns the TPC-H benchmark; skewed=true yields the TPC-H Skew
// variant: the same schema with zipfian value distributions and
// correlated columns, mirroring Microsoft's TPC-H Skew generator. The
// paper uses zipf factor 4; here s=2 on a bounded domain, because at
// s=4 about 92% of the draws are the first value and the domain stops
// being meaningful. The optimiser's NDVs come from the stored sample,
// so s=2 keeps its uniformity misestimate just as severe.
func TPCH(skewed bool) *Benchmark {
	name := "tpch"
	if skewed {
		name = "tpch-skew"
	}
	return &Benchmark{
		Name:      name,
		NewSchema: func() *catalog.Schema { return tpchSchema(skewed) },
		Templates: tpchTemplates(),
	}
}

func tpchSchema(skewed bool) *catalog.Schema {
	const zs = 2.0
	dist := func(uniform catalog.Distribution) catalog.Distribution {
		if !skewed {
			return uniform
		}
		switch uniform {
		case catalog.DistUniform:
			return catalog.DistZipf
		case catalog.DistForeignKey:
			return catalog.DistForeignKeyZipf
		default:
			return uniform
		}
	}
	z := func() float64 {
		if skewed {
			return zs
		}
		return 0
	}

	region := &catalog.Table{
		Name: "region", BaseRows: 5, FixedSize: true, PK: []string{"r_regionkey"},
		Columns: []catalog.Column{
			{Name: "r_regionkey", Kind: catalog.KindInt, Dist: catalog.DistSequential},
			{Name: "r_name", Kind: catalog.KindString, Dist: catalog.DistUniform, DomainLo: 0, DomainHi: 4},
		},
	}
	nation := &catalog.Table{
		Name: "nation", BaseRows: 25, FixedSize: true, PK: []string{"n_nationkey"},
		Columns: []catalog.Column{
			{Name: "n_nationkey", Kind: catalog.KindInt, Dist: catalog.DistSequential},
			{Name: "n_regionkey", Kind: catalog.KindInt, Dist: catalog.DistForeignKey, RefTable: "region", RefCol: "r_regionkey"},
			{Name: "n_name", Kind: catalog.KindString, Dist: catalog.DistUniform, DomainLo: 0, DomainHi: 24},
		},
	}
	supplier := &catalog.Table{
		Name: "supplier", BaseRows: 10_000, PK: []string{"s_suppkey"},
		Columns: []catalog.Column{
			{Name: "s_suppkey", Kind: catalog.KindInt, Dist: catalog.DistSequential},
			{Name: "s_nationkey", Kind: catalog.KindInt, Dist: dist(catalog.DistForeignKey), ZipfS: z(), RefTable: "nation", RefCol: "n_nationkey"},
			{Name: "s_acctbal", Kind: catalog.KindDecimal, Dist: dist(catalog.DistUniform), ZipfS: z(), DomainLo: 0, DomainHi: 9999},
			{Name: "s_comment", Kind: catalog.KindString, Dist: catalog.DistUniform, DomainLo: 0, DomainHi: 9999},
		},
	}
	customer := &catalog.Table{
		Name: "customer", BaseRows: 150_000, PK: []string{"c_custkey"},
		Columns: []catalog.Column{
			{Name: "c_custkey", Kind: catalog.KindInt, Dist: catalog.DistSequential},
			{Name: "c_nationkey", Kind: catalog.KindInt, Dist: dist(catalog.DistForeignKey), ZipfS: z(), RefTable: "nation", RefCol: "n_nationkey"},
			{Name: "c_mktsegment", Kind: catalog.KindInt, Dist: dist(catalog.DistUniform), ZipfS: z(), DomainLo: 0, DomainHi: 4},
			{Name: "c_acctbal", Kind: catalog.KindDecimal, Dist: dist(catalog.DistUniform), ZipfS: z(), DomainLo: 0, DomainHi: 9999},
			{Name: "c_phone", Kind: catalog.KindString, Dist: catalog.DistUniform, DomainLo: 0, DomainHi: 14999},
			{Name: "c_name", Kind: catalog.KindString, Dist: catalog.DistUniform, DomainLo: 0, DomainHi: 149_999},
		},
	}
	part := &catalog.Table{
		Name: "part", BaseRows: 200_000, PK: []string{"p_partkey"},
		Columns: []catalog.Column{
			{Name: "p_partkey", Kind: catalog.KindInt, Dist: catalog.DistSequential},
			{Name: "p_brand", Kind: catalog.KindInt, Dist: dist(catalog.DistUniform), ZipfS: z(), DomainLo: 0, DomainHi: 24},
			{Name: "p_type", Kind: catalog.KindInt, Dist: dist(catalog.DistUniform), ZipfS: z(), DomainLo: 0, DomainHi: 149},
			{Name: "p_size", Kind: catalog.KindInt, Dist: dist(catalog.DistUniform), ZipfS: z(), DomainLo: 1, DomainHi: 50},
			{Name: "p_container", Kind: catalog.KindInt, Dist: catalog.DistUniform, DomainLo: 0, DomainHi: 39},
			{Name: "p_retailprice", Kind: catalog.KindDecimal, Dist: catalog.DistUniform, DomainLo: 900, DomainHi: 2100},
			{Name: "p_comment", Kind: catalog.KindString, Dist: catalog.DistUniform, DomainLo: 0, DomainHi: 9999},
			{Name: "p_name", Kind: catalog.KindString, Dist: catalog.DistUniform, DomainLo: 0, DomainHi: 9999},
		},
	}
	partsupp := &catalog.Table{
		Name: "partsupp", BaseRows: 800_000, PK: []string{"ps_partkey", "ps_suppkey"},
		Columns: []catalog.Column{
			{Name: "ps_partkey", Kind: catalog.KindInt, Dist: dist(catalog.DistForeignKey), ZipfS: z(), RefTable: "part", RefCol: "p_partkey"},
			{Name: "ps_suppkey", Kind: catalog.KindInt, Dist: dist(catalog.DistForeignKey), ZipfS: z(), RefTable: "supplier", RefCol: "s_suppkey"},
			{Name: "ps_availqty", Kind: catalog.KindInt, Dist: catalog.DistUniform, DomainLo: 1, DomainHi: 9999},
			{Name: "ps_supplycost", Kind: catalog.KindDecimal, Dist: catalog.DistUniform, DomainLo: 1, DomainHi: 1000},
			{Name: "ps_comment", Kind: catalog.KindString, Dist: catalog.DistUniform, DomainLo: 0, DomainHi: 9999},
			{Name: "ps_comment2", Kind: catalog.KindString, Dist: catalog.DistUniform, DomainLo: 0, DomainHi: 9999},
		},
	}
	orders := &catalog.Table{
		Name: "orders", BaseRows: 1_500_000, PK: []string{"o_orderkey"},
		Columns: []catalog.Column{
			{Name: "o_orderkey", Kind: catalog.KindInt, Dist: catalog.DistSequential},
			{Name: "o_custkey", Kind: catalog.KindInt, Dist: dist(catalog.DistForeignKey), ZipfS: z(), RefTable: "customer", RefCol: "c_custkey"},
			{Name: "o_orderdate", Kind: catalog.KindDate, Dist: catalog.DistUniform, DomainLo: 0, DomainHi: 2405},
			{Name: "o_orderstatus", Kind: catalog.KindInt, Dist: dist(catalog.DistUniform), ZipfS: z(), DomainLo: 0, DomainHi: 2},
			{Name: "o_orderpriority", Kind: catalog.KindInt, Dist: dist(catalog.DistUniform), ZipfS: z(), DomainLo: 0, DomainHi: 4},
			{Name: "o_totalprice", Kind: catalog.KindDecimal, Dist: dist(catalog.DistUniform), ZipfS: z(), DomainLo: 1000, DomainHi: 200_000},
			{Name: "o_shippriority", Kind: catalog.KindInt, Dist: catalog.DistUniform, DomainLo: 0, DomainHi: 1},
			{Name: "o_comment", Kind: catalog.KindString, Dist: catalog.DistUniform, DomainLo: 0, DomainHi: 9999},
			{Name: "o_clerk", Kind: catalog.KindString, Dist: catalog.DistUniform, DomainLo: 0, DomainHi: 999},
		},
	}
	lineitem := &catalog.Table{
		Name: "lineitem", BaseRows: 6_000_000, PK: []string{"l_orderkey", "l_linenumber"},
		Columns: []catalog.Column{
			{Name: "l_orderkey", Kind: catalog.KindInt, Dist: dist(catalog.DistForeignKey), ZipfS: z(), RefTable: "orders", RefCol: "o_orderkey"},
			{Name: "l_linenumber", Kind: catalog.KindInt, Dist: catalog.DistUniform, DomainLo: 1, DomainHi: 7},
			{Name: "l_partkey", Kind: catalog.KindInt, Dist: dist(catalog.DistForeignKey), ZipfS: z(), RefTable: "part", RefCol: "p_partkey"},
			{Name: "l_suppkey", Kind: catalog.KindInt, Dist: dist(catalog.DistForeignKey), ZipfS: z(), RefTable: "supplier", RefCol: "s_suppkey"},
			{Name: "l_shipdate", Kind: catalog.KindDate, Dist: catalog.DistUniform, DomainLo: 0, DomainHi: 2526},
			{Name: "l_commitdate", Kind: catalog.KindDate, Dist: catalog.DistCorrelated, CorrWith: "l_shipdate", DomainLo: 0, DomainHi: 2526, CorrNoise: 30},
			{Name: "l_receiptdate", Kind: catalog.KindDate, Dist: catalog.DistCorrelated, CorrWith: "l_shipdate", DomainLo: 0, DomainHi: 2556, CorrNoise: 15},
			{Name: "l_quantity", Kind: catalog.KindInt, Dist: dist(catalog.DistUniform), ZipfS: z(), DomainLo: 1, DomainHi: 50},
			{Name: "l_discount", Kind: catalog.KindInt, Dist: catalog.DistUniform, DomainLo: 0, DomainHi: 10},
			{Name: "l_tax", Kind: catalog.KindInt, Dist: catalog.DistUniform, DomainLo: 0, DomainHi: 8},
			{Name: "l_returnflag", Kind: catalog.KindInt, Dist: dist(catalog.DistUniform), ZipfS: z(), DomainLo: 0, DomainHi: 2},
			{Name: "l_linestatus", Kind: catalog.KindInt, Dist: catalog.DistUniform, DomainLo: 0, DomainHi: 1},
			{Name: "l_shipmode", Kind: catalog.KindInt, Dist: dist(catalog.DistUniform), ZipfS: z(), DomainLo: 0, DomainHi: 6},
			{Name: "l_extendedprice", Kind: catalog.KindDecimal, Dist: dist(catalog.DistUniform), ZipfS: z(), DomainLo: 900, DomainHi: 105_000},
			{Name: "l_comment", Kind: catalog.KindString, Dist: catalog.DistUniform, DomainLo: 0, DomainHi: 9999},
			{Name: "l_shipinstruct", Kind: catalog.KindString, Dist: catalog.DistUniform, DomainLo: 0, DomainHi: 3},
		},
	}
	s := catalog.MustSchema(tpchName(skewed), region, nation, supplier, customer, part, partsupp, orders, lineitem)
	s.FKs = []catalog.ForeignKey{
		{Table: "nation", Column: "n_regionkey", RefTable: "region", RefColumn: "r_regionkey"},
		{Table: "supplier", Column: "s_nationkey", RefTable: "nation", RefColumn: "n_nationkey"},
		{Table: "customer", Column: "c_nationkey", RefTable: "nation", RefColumn: "n_nationkey"},
		{Table: "partsupp", Column: "ps_partkey", RefTable: "part", RefColumn: "p_partkey"},
		{Table: "partsupp", Column: "ps_suppkey", RefTable: "supplier", RefColumn: "s_suppkey"},
		{Table: "orders", Column: "o_custkey", RefTable: "customer", RefColumn: "c_custkey"},
		{Table: "lineitem", Column: "l_orderkey", RefTable: "orders", RefColumn: "o_orderkey"},
		{Table: "lineitem", Column: "l_partkey", RefTable: "part", RefColumn: "p_partkey"},
		{Table: "lineitem", Column: "l_suppkey", RefTable: "supplier", RefColumn: "s_suppkey"},
	}
	return s
}

func tpchName(skewed bool) string {
	if skewed {
		return "tpch-skew"
	}
	return "tpch"
}

// tpchTemplates models the 22 TPC-H query templates: the same join
// shapes, predicate columns and payload structure as Q1-Q22, with
// LIKE/substring/EXISTS constructs approximated by equality or range
// predicates on the encoded columns.
func tpchTemplates() []TemplateSpec {
	L, O, C, P, PS, S, N, R := "lineitem", "orders", "customer", "part", "partsupp", "supplier", "nation", "region"
	return []TemplateSpec{
		{ID: 1, Tables: []string{L},
			Preds:    []PredSpec{ltf(L, "l_shipdate", 0.95)},
			Payload:  []query.ColumnRef{pay(L, "l_quantity"), pay(L, "l_extendedprice"), pay(L, "l_discount"), pay(L, "l_returnflag"), pay(L, "l_linestatus")},
			AggWidth: 5},
		{ID: 2, Tables: []string{P, PS, S, N, R},
			Preds:   []PredSpec{eqd(P, "p_size"), eqd(P, "p_type"), eqd(R, "r_name")},
			Joins:   []query.Join{jn(PS, "ps_partkey", P, "p_partkey"), jn(PS, "ps_suppkey", S, "s_suppkey"), jn(S, "s_nationkey", N, "n_nationkey"), jn(N, "n_regionkey", R, "r_regionkey")},
			Payload: []query.ColumnRef{pay(S, "s_acctbal"), pay(PS, "ps_supplycost"), pay(N, "n_name")}, AggWidth: 2},
		{ID: 3, Tables: []string{C, O, L},
			Preds:   []PredSpec{eqd(C, "c_mktsegment"), ltf(O, "o_orderdate", 0.6), gtf(L, "l_shipdate", 0.4)},
			Joins:   []query.Join{jn(O, "o_custkey", C, "c_custkey"), jn(L, "l_orderkey", O, "o_orderkey")},
			Payload: []query.ColumnRef{pay(L, "l_extendedprice"), pay(L, "l_discount"), pay(O, "o_orderdate"), pay(O, "o_shippriority")}, AggWidth: 3},
		{ID: 4, Tables: []string{O, L},
			Preds:   []PredSpec{rngf(O, "o_orderdate", 0.037), ltf(L, "l_commitdate", 0.5)},
			Joins:   []query.Join{jn(L, "l_orderkey", O, "o_orderkey")},
			Payload: []query.ColumnRef{pay(O, "o_orderpriority")}, AggWidth: 1},
		{ID: 5, Tables: []string{C, O, L, S, N, R},
			Preds:   []PredSpec{eqd(R, "r_name"), rngf(O, "o_orderdate", 0.15)},
			Joins:   []query.Join{jn(O, "o_custkey", C, "c_custkey"), jn(L, "l_orderkey", O, "o_orderkey"), jn(L, "l_suppkey", S, "s_suppkey"), jn(C, "c_nationkey", N, "n_nationkey"), jn(N, "n_regionkey", R, "r_regionkey")},
			Payload: []query.ColumnRef{pay(L, "l_extendedprice"), pay(L, "l_discount"), pay(N, "n_name")}, AggWidth: 2},
		{ID: 6, Tables: []string{L},
			Preds:    []PredSpec{rngf(L, "l_shipdate", 0.15), rngf(L, "l_discount", 0.2), ltf(L, "l_quantity", 0.48)},
			Payload:  []query.ColumnRef{pay(L, "l_extendedprice"), pay(L, "l_discount")},
			AggWidth: 1},
		{ID: 7, Tables: []string{S, L, O, C, N},
			Preds:   []PredSpec{rngf(L, "l_shipdate", 0.3), eqd(N, "n_name")},
			Joins:   []query.Join{jn(L, "l_suppkey", S, "s_suppkey"), jn(L, "l_orderkey", O, "o_orderkey"), jn(O, "o_custkey", C, "c_custkey"), jn(S, "s_nationkey", N, "n_nationkey")},
			Payload: []query.ColumnRef{pay(L, "l_extendedprice"), pay(L, "l_discount"), pay(L, "l_shipdate")}, AggWidth: 3},
		{ID: 8, Tables: []string{P, L, O, C, N, R},
			Preds:   []PredSpec{eqd(P, "p_type"), rngf(O, "o_orderdate", 0.3), eqd(R, "r_name")},
			Joins:   []query.Join{jn(L, "l_partkey", P, "p_partkey"), jn(L, "l_orderkey", O, "o_orderkey"), jn(O, "o_custkey", C, "c_custkey"), jn(C, "c_nationkey", N, "n_nationkey"), jn(N, "n_regionkey", R, "r_regionkey")},
			Payload: []query.ColumnRef{pay(L, "l_extendedprice"), pay(L, "l_discount"), pay(O, "o_orderdate")}, AggWidth: 2},
		{ID: 9, Tables: []string{P, L, S, PS, N},
			Preds:   []PredSpec{eqd(P, "p_brand")},
			Joins:   []query.Join{jn(L, "l_partkey", P, "p_partkey"), jn(L, "l_suppkey", S, "s_suppkey"), jn(PS, "ps_partkey", P, "p_partkey"), jn(S, "s_nationkey", N, "n_nationkey")},
			Payload: []query.ColumnRef{pay(L, "l_extendedprice"), pay(L, "l_discount"), pay(PS, "ps_supplycost"), pay(L, "l_quantity"), pay(N, "n_name")}, AggWidth: 3},
		{ID: 10, Tables: []string{C, O, L, N},
			Preds:   []PredSpec{rngf(O, "o_orderdate", 0.08), eqd(L, "l_returnflag")},
			Joins:   []query.Join{jn(O, "o_custkey", C, "c_custkey"), jn(L, "l_orderkey", O, "o_orderkey"), jn(C, "c_nationkey", N, "n_nationkey")},
			Payload: []query.ColumnRef{pay(C, "c_name"), pay(C, "c_acctbal"), pay(L, "l_extendedprice"), pay(L, "l_discount"), pay(N, "n_name")}, AggWidth: 4},
		{ID: 11, Tables: []string{PS, S, N},
			Preds:   []PredSpec{eqd(N, "n_name")},
			Joins:   []query.Join{jn(PS, "ps_suppkey", S, "s_suppkey"), jn(S, "s_nationkey", N, "n_nationkey")},
			Payload: []query.ColumnRef{pay(PS, "ps_supplycost"), pay(PS, "ps_availqty")}, AggWidth: 2},
		{ID: 12, Tables: []string{O, L},
			Preds:   []PredSpec{eqd(L, "l_shipmode"), rngf(L, "l_receiptdate", 0.15)},
			Joins:   []query.Join{jn(L, "l_orderkey", O, "o_orderkey")},
			Payload: []query.ColumnRef{pay(O, "o_orderpriority"), pay(L, "l_shipmode")}, AggWidth: 2},
		{ID: 13, Tables: []string{C, O},
			Preds:   []PredSpec{eqd(O, "o_orderpriority")},
			Joins:   []query.Join{jn(O, "o_custkey", C, "c_custkey")},
			Payload: []query.ColumnRef{pay(C, "c_custkey")}, AggWidth: 2},
		{ID: 14, Tables: []string{L, P},
			Preds:   []PredSpec{rngf(L, "l_shipdate", 0.04)},
			Joins:   []query.Join{jn(L, "l_partkey", P, "p_partkey")},
			Payload: []query.ColumnRef{pay(L, "l_extendedprice"), pay(L, "l_discount"), pay(P, "p_type")}, AggWidth: 1},
		{ID: 15, Tables: []string{L, S},
			Preds:   []PredSpec{rngf(L, "l_shipdate", 0.08)},
			Joins:   []query.Join{jn(L, "l_suppkey", S, "s_suppkey")},
			Payload: []query.ColumnRef{pay(L, "l_extendedprice"), pay(L, "l_discount"), pay(S, "s_acctbal")}, AggWidth: 2},
		{ID: 16, Tables: []string{PS, P},
			Preds:   []PredSpec{eqd(P, "p_brand"), eqd(P, "p_type"), rngf(P, "p_size", 0.16)},
			Joins:   []query.Join{jn(PS, "ps_partkey", P, "p_partkey")},
			Payload: []query.ColumnRef{pay(PS, "ps_suppkey"), pay(P, "p_brand"), pay(P, "p_type"), pay(P, "p_size")}, AggWidth: 3},
		{ID: 17, Tables: []string{L, P},
			Preds:   []PredSpec{eqd(P, "p_brand"), eqd(P, "p_container"), ltf(L, "l_quantity", 0.04)},
			Joins:   []query.Join{jn(L, "l_partkey", P, "p_partkey")},
			Payload: []query.ColumnRef{pay(L, "l_extendedprice"), pay(L, "l_quantity")}, AggWidth: 1},
		{ID: 18, Tables: []string{C, O, L},
			Preds:   []PredSpec{gtf(L, "l_quantity", 0.04)},
			Joins:   []query.Join{jn(O, "o_custkey", C, "c_custkey"), jn(L, "l_orderkey", O, "o_orderkey")},
			Payload: []query.ColumnRef{pay(C, "c_name"), pay(O, "o_orderdate"), pay(O, "o_totalprice"), pay(L, "l_quantity")}, AggWidth: 4},
		{ID: 19, Tables: []string{L, P},
			Preds:   []PredSpec{eqd(P, "p_brand"), eqd(P, "p_container"), rngf(L, "l_quantity", 0.2), rngf(P, "p_size", 0.2)},
			Joins:   []query.Join{jn(L, "l_partkey", P, "p_partkey")},
			Payload: []query.ColumnRef{pay(L, "l_extendedprice"), pay(L, "l_discount")}, AggWidth: 1},
		{ID: 20, Tables: []string{S, N, PS, P},
			Preds:   []PredSpec{eqd(N, "n_name"), eqd(P, "p_brand")},
			Joins:   []query.Join{jn(S, "s_nationkey", N, "n_nationkey"), jn(PS, "ps_suppkey", S, "s_suppkey"), jn(PS, "ps_partkey", P, "p_partkey")},
			Payload: []query.ColumnRef{pay(S, "s_acctbal"), pay(PS, "ps_availqty")}, AggWidth: 1},
		{ID: 21, Tables: []string{S, L, O, N},
			Preds:   []PredSpec{eqd(O, "o_orderstatus"), eqd(N, "n_name")},
			Joins:   []query.Join{jn(L, "l_suppkey", S, "s_suppkey"), jn(L, "l_orderkey", O, "o_orderkey"), jn(S, "s_nationkey", N, "n_nationkey")},
			Payload: []query.ColumnRef{pay(S, "s_acctbal"), pay(L, "l_quantity")}, AggWidth: 2},
		{ID: 22, Tables: []string{C, O},
			Preds:   []PredSpec{gtf(C, "c_acctbal", 0.4), eqd(C, "c_nationkey")},
			Joins:   []query.Join{jn(O, "o_custkey", C, "c_custkey")},
			Payload: []query.ColumnRef{pay(C, "c_acctbal"), pay(O, "o_totalprice")}, AggWidth: 2},
	}
}
