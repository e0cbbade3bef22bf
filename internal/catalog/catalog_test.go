package catalog

import "testing"

func sampleSchema() *Schema {
	t1 := &Table{
		Name:     "orders",
		BaseRows: 1000,
		PK:       []string{"o_id"},
		Columns: []Column{
			{Name: "o_id", Kind: KindInt, Dist: DistSequential},
			{Name: "o_custkey", Kind: KindInt, Dist: DistForeignKey, RefTable: "customer", RefCol: "c_id"},
			{Name: "o_date", Kind: KindDate, Dist: DistUniform, DomainLo: 0, DomainHi: 2555},
			{Name: "o_comment", Kind: KindString, Dist: DistUniform, DomainLo: 0, DomainHi: 999},
		},
	}
	t2 := &Table{
		Name:     "customer",
		BaseRows: 100,
		PK:       []string{"c_id"},
		Columns: []Column{
			{Name: "c_id", Kind: KindInt, Dist: DistSequential},
			{Name: "c_nation", Kind: KindInt, Dist: DistUniform, DomainLo: 0, DomainHi: 24},
		},
	}
	s := MustSchema("sample", t1, t2)
	s.FKs = []ForeignKey{{Table: "orders", Column: "o_custkey", RefTable: "customer", RefColumn: "c_id"}}
	return s
}

func TestSchemaLookup(t *testing.T) {
	s := sampleSchema()
	tbl, ok := s.Table("orders")
	if !ok || tbl.Name != "orders" {
		t.Fatal("orders lookup failed")
	}
	if _, ok := s.Table("nope"); ok {
		t.Fatal("lookup of missing table succeeded")
	}
	col, ok := tbl.Column("o_date")
	if !ok || col.Kind != KindDate {
		t.Fatal("column lookup failed")
	}
	if idx := tbl.ColumnIndex("o_custkey"); idx != 1 {
		t.Fatalf("column index = %d", idx)
	}
	if idx := tbl.ColumnIndex("missing"); idx != -1 {
		t.Fatalf("missing column index = %d", idx)
	}
}

func TestDuplicateTableRejected(t *testing.T) {
	a := &Table{Name: "t", BaseRows: 1, Columns: []Column{{Name: "c"}}}
	if _, err := NewSchema("dup", a, a); err == nil {
		t.Fatal("expected duplicate table error")
	}
}

func TestValidate(t *testing.T) {
	s := sampleSchema()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	bad := MustSchema("bad", &Table{
		Name: "t", BaseRows: 1, PK: []string{"missing"},
		Columns: []Column{{Name: "c"}},
	})
	if err := bad.Validate(); err == nil {
		t.Fatal("missing PK column accepted")
	}
	bad2 := sampleSchema()
	bad2.FKs = append(bad2.FKs, ForeignKey{Table: "orders", Column: "nope", RefTable: "customer", RefColumn: "c_id"})
	if err := bad2.Validate(); err == nil {
		t.Fatal("FK from missing column accepted")
	}
	bad3 := sampleSchema()
	bad3.FKs = append(bad3.FKs, ForeignKey{Table: "orders", Column: "o_custkey", RefTable: "ghost", RefColumn: "x"})
	if err := bad3.Validate(); err == nil {
		t.Fatal("FK to missing table accepted")
	}
	bad4 := MustSchema("bad4", &Table{
		Name: "t", BaseRows: 1,
		Columns: []Column{{Name: "c"}, {Name: "c"}},
	})
	if err := bad4.Validate(); err == nil {
		t.Fatal("duplicate column accepted")
	}
}

func TestWidthsAndSizes(t *testing.T) {
	s := sampleSchema()
	tbl := s.MustTable("orders")
	// int(8) + int(8) + date(4) + string(24) = 44
	if w := tbl.RowWidthBytes(); w != 44 {
		t.Fatalf("row width = %d, want 44", w)
	}
	tbl.RowCount = 10
	if sz := tbl.SizeBytes(); sz != 440 {
		t.Fatalf("size = %d", sz)
	}
}

func TestDataSizeAndColumnCount(t *testing.T) {
	s := sampleSchema()
	for _, tbl := range s.Tables {
		tbl.RowCount = tbl.BaseRows
	}
	if got := len(s.MustTable("orders").Columns) + len(s.MustTable("customer").Columns); got != 6 {
		t.Fatalf("column count = %d, want 6", got)
	}
	want := s.MustTable("orders").SizeBytes() + s.MustTable("customer").SizeBytes()
	if got := s.DataSizeBytes(); got != want {
		t.Fatalf("data size = %d, want %d", got, want)
	}
}

func TestSortedTableNames(t *testing.T) {
	s := sampleSchema()
	names := s.SortedTableNames()
	if len(names) != 2 || names[0] != "customer" || names[1] != "orders" {
		t.Fatalf("sorted names = %v", names)
	}
}

func TestKindString(t *testing.T) {
	cases := map[ColumnKind]string{
		KindInt: "int", KindDate: "date", KindString: "string", KindDecimal: "decimal",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("%v.String() = %q", int(k), k.String())
		}
	}
}

func TestMustTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sampleSchema().MustTable("ghost")
}
