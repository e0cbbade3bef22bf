package datagen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dbabandits/internal/catalog"
	"dbabandits/internal/query"
	"dbabandits/internal/storage"
)

// mustBuild builds testSchema at seed and fails the test on an error.
func mustBuild(t *testing.T, seed int64) *storage.Database {
	t.Helper()
	db, err := Build(testSchema(), Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func testSchema() *catalog.Schema {
	dim := &catalog.Table{
		Name:     "dim",
		BaseRows: 100,
		PK:       []string{"d_id"},
		Columns: []catalog.Column{
			{Name: "d_id", Kind: catalog.KindInt, Dist: catalog.DistSequential},
			{Name: "d_attr", Kind: catalog.KindInt, Dist: catalog.DistUniform, DomainLo: 0, DomainHi: 9},
		},
	}
	fact := &catalog.Table{
		Name:     "fact",
		BaseRows: 5000,
		PK:       []string{"f_id"},
		Columns: []catalog.Column{
			{Name: "f_id", Kind: catalog.KindInt, Dist: catalog.DistSequential},
			{Name: "f_dim", Kind: catalog.KindInt, Dist: catalog.DistForeignKey, RefTable: "dim", RefCol: "d_id"},
			{Name: "f_uni", Kind: catalog.KindInt, Dist: catalog.DistUniform, DomainLo: 1, DomainHi: 1000},
			{Name: "f_zipf", Kind: catalog.KindInt, Dist: catalog.DistZipf, ZipfS: 1.5, DomainLo: 1, DomainHi: 500},
			{Name: "f_corr", Kind: catalog.KindInt, Dist: catalog.DistCorrelated, CorrWith: "f_uni", DomainLo: 1, DomainHi: 1000, CorrNoise: 5},
			{Name: "f_hotdim", Kind: catalog.KindInt, Dist: catalog.DistForeignKeyZipf, ZipfS: 2, RefTable: "dim", RefCol: "d_id"},
		},
	}
	s := catalog.MustSchema("test", dim, fact)
	s.FKs = []catalog.ForeignKey{
		{Table: "fact", Column: "f_dim", RefTable: "dim", RefColumn: "d_id"},
	}
	return s
}

func TestBuildBasics(t *testing.T) {
	db, err := Build(testSchema(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fact := db.MustTable("fact")
	if fact.StoredRows != 5000 {
		t.Fatalf("stored rows = %d", fact.StoredRows)
	}
	if fact.Mult != 1 {
		t.Fatalf("mult = %v", fact.Mult)
	}
	if got := fact.Meta.RowCount; got != 5000 {
		t.Fatalf("logical rows = %d", got)
	}
}

func TestBuildScaleFactorAndCap(t *testing.T) {
	db, err := Build(testSchema(), Options{Seed: 1, ScaleFactor: 10, MaxStoredRows: 2000})
	if err != nil {
		t.Fatal(err)
	}
	fact := db.MustTable("fact")
	if fact.StoredRows != 2000 {
		t.Fatalf("stored rows = %d, want cap 2000", fact.StoredRows)
	}
	if want := 50000.0 / 2000.0; math.Abs(fact.Mult-want) > 1e-9 {
		t.Fatalf("mult = %v, want %v", fact.Mult, want)
	}
	if got := fact.LogicalRows(); math.Abs(got-50000) > 1e-6 {
		t.Fatalf("logical rows = %v", got)
	}
	// dim is under the cap: stored fully
	dim := db.MustTable("dim")
	if dim.StoredRows != 1000 || dim.Mult != 1 {
		t.Fatalf("dim stored=%d mult=%v", dim.StoredRows, dim.Mult)
	}
}

func TestFixedSizeTableIgnoresSF(t *testing.T) {
	s := testSchema()
	s.MustTable("dim").FixedSize = true
	db, err := Build(s, Options{Seed: 1, ScaleFactor: 100, MaxStoredRows: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.MustTable("dim").StoredRows; got != 100 {
		t.Fatalf("fixed dim stored rows = %d, want 100", got)
	}
}

func TestSequentialColumn(t *testing.T) {
	db := mustBuild(t, 2)
	ids := db.MustTable("dim").MustColumn("d_id")
	for i, v := range ids {
		if v != int64(i+1) {
			t.Fatalf("d_id[%d] = %d", i, v)
		}
	}
}

func TestForeignKeyReferencesStoredDomain(t *testing.T) {
	db := mustBuild(t, 3)
	dimIDs := map[int64]bool{}
	for _, v := range db.MustTable("dim").MustColumn("d_id") {
		dimIDs[v] = true
	}
	for _, v := range db.MustTable("fact").MustColumn("f_dim") {
		if !dimIDs[v] {
			t.Fatalf("FK value %d not in dim key domain", v)
		}
	}
	for _, v := range db.MustTable("fact").MustColumn("f_hotdim") {
		if !dimIDs[v] {
			t.Fatalf("zipf FK value %d not in dim key domain", v)
		}
	}
}

func TestZipfSkewsCounts(t *testing.T) {
	db := mustBuild(t, 4)
	col := db.MustTable("fact").MustColumn("f_zipf")
	counts := map[int64]int{}
	for _, v := range col {
		counts[v]++
	}
	// The modal value must hold far more than the uniform share.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	uniformShare := len(col) / 500
	if max < 5*uniformShare {
		t.Fatalf("zipf top count %d vs uniform share %d: not skewed", max, uniformShare)
	}
}

func TestCorrelatedColumnTracksSource(t *testing.T) {
	db := mustBuild(t, 5)
	fact := db.MustTable("fact")
	src := fact.MustColumn("f_uni")
	dst := fact.MustColumn("f_corr")
	var sx, sy, sxx, syy, sxy float64
	n := float64(len(src))
	for i := range src {
		x, y := float64(src[i]), float64(dst[i])
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
	}
	corr := (n*sxy - sx*sy) / math.Sqrt((n*sxx-sx*sx)*(n*syy-sy*sy))
	if corr < 0.95 {
		t.Fatalf("correlation = %v, want >= 0.95", corr)
	}
}

func TestStatsComputedFromStoredData(t *testing.T) {
	db := mustBuild(t, 6)
	col, _ := db.Schema.MustTable("fact").Column("f_uni")
	if col.Stats.NDV <= 0 || col.Stats.NDV > 1000 {
		t.Fatalf("NDV = %d", col.Stats.NDV)
	}
	if col.Stats.Min < 1 || col.Stats.Max > 1000 || col.Stats.Min > col.Stats.Max {
		t.Fatalf("stats range [%d,%d]", col.Stats.Min, col.Stats.Max)
	}
	seq, _ := db.Schema.MustTable("dim").Column("d_id")
	if seq.Stats.NDV != 100 {
		t.Fatalf("sequential NDV = %d, want 100", seq.Stats.NDV)
	}
}

func TestDeterminism(t *testing.T) {
	a := mustBuild(t, 7)
	b := mustBuild(t, 7)
	ca := a.MustTable("fact").MustColumn("f_zipf")
	cb := b.MustTable("fact").MustColumn("f_zipf")
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("row %d differs: %d vs %d", i, ca[i], cb[i])
		}
	}
	c := mustBuild(t, 8)
	cc := c.MustTable("fact").MustColumn("f_zipf")
	same := true
	for i := range ca {
		if ca[i] != cc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestBuildErrors(t *testing.T) {
	s := catalog.MustSchema("bad", &catalog.Table{
		Name:     "t",
		BaseRows: 10,
		Columns: []catalog.Column{
			{Name: "a", Dist: catalog.DistUniform, DomainLo: 5, DomainHi: 1},
		},
	})
	if _, err := Build(s, Options{}); err == nil {
		t.Fatal("expected empty-domain error")
	}
	s2 := catalog.MustSchema("bad2", &catalog.Table{
		Name:     "t",
		BaseRows: 10,
		Columns: []catalog.Column{
			{Name: "a", Dist: catalog.DistCorrelated, CorrWith: "missing", DomainLo: 1, DomainHi: 2},
		},
	})
	if _, err := Build(s2, Options{}); err == nil {
		t.Fatal("expected missing-correlation-source error")
	}
	s3 := catalog.MustSchema("bad3", &catalog.Table{
		Name:     "t",
		BaseRows: 0,
		Columns:  []catalog.Column{{Name: "a", Dist: catalog.DistSequential}},
	})
	if _, err := Build(s3, Options{}); err == nil {
		t.Fatal("expected zero BaseRows error")
	}
}

func TestSelectAndCountAgree(t *testing.T) {
	db := mustBuild(t, 9)
	fact := db.MustTable("fact")
	preds := []query.Predicate{
		{Table: "fact", Column: "f_uni", Op: query.OpRange, Lo: 100, Hi: 400},
		{Table: "fact", Column: "f_zipf", Op: query.OpEq, Lo: 1},
	}
	rows, ok := fact.AppendSelectRows(nil, preds)
	if !ok {
		t.Fatal("select failed")
	}
	n, ok := fact.CountRows(preds)
	if !ok {
		t.Fatal("count failed")
	}
	if len(rows) != n {
		t.Fatalf("select found %d, count found %d", len(rows), n)
	}
	for _, r := range rows {
		u := fact.MustColumn("f_uni")[r]
		z := fact.MustColumn("f_zipf")[r]
		if u < 100 || u > 400 || z != 1 {
			t.Fatalf("row %d does not match: uni=%d zipf=%d", r, u, z)
		}
	}
}

func TestZipfErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := newZipf(rng, 0, 10); err == nil {
		t.Fatal("expected error for s=0")
	}
	if _, err := newZipf(rng, 1, 0); err == nil {
		t.Fatal("expected error for empty domain")
	}
	if _, err := newZipf(rng, 1, maxZipfDomain+1); err == nil {
		t.Fatal("expected error for huge domain")
	}
}

// Property: zipf ranks are always within domain and rank frequencies are
// non-increasing-ish (rank 0 is the most frequent for s >= 1).
func TestQuickZipfInDomain(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int64(2 + rng.Intn(100))
		s := 0.5 + rng.Float64()*3
		z, err := newZipf(rng, s, n)
		if err != nil {
			return false
		}
		counts := make([]int, n)
		for i := 0; i < 2000; i++ {
			r := z.Next()
			if r < 0 || r >= n {
				return false
			}
			counts[r]++
		}
		top := counts[0]
		for _, c := range counts[1:] {
			if c > top {
				top = c
			}
		}
		// rank 0 should be within a small factor of the max count
		return counts[0]*3 >= top
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Build never produces a multiplier below 1 and always stores at
// least one row for non-empty tables.
func TestQuickMultiplierInvariant(t *testing.T) {
	f := func(sfRaw uint8, capRaw uint16) bool {
		sf := 0.1 + float64(sfRaw%50)
		cap := 100 + int(capRaw%5000)
		db, err := Build(testSchema(), Options{Seed: 11, ScaleFactor: sf, MaxStoredRows: cap})
		if err != nil {
			return false
		}
		for _, tbl := range db.Tables {
			if tbl.StoredRows < 1 || tbl.Mult < 1 {
				return false
			}
			logical := float64(tbl.Meta.RowCount)
			if math.Abs(tbl.LogicalRows()-logical) > 1e-6*logical+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
