package mab

import (
	"strings"
	"testing"

	"dbabandits/internal/query"
)

func tq(id int, col string) *query.Query {
	return &query.Query{
		TemplateID: id,
		Tables:     []string{"orders"},
		Filters: []query.Predicate{
			{Table: "orders", Column: col, Op: query.OpEq, Lo: int64(id), Hi: int64(id)},
		},
	}
}

func TestQueryStoreObserveAndQoI(t *testing.T) {
	qs := NewQueryStore()
	n := qs.Observe(1, []*query.Query{tq(1, "o_date"), tq(2, "o_status")})
	if n != 2 {
		t.Fatalf("new templates = %d", n)
	}
	n = qs.Observe(2, []*query.Query{tq(1, "o_date")})
	if n != 0 {
		t.Fatalf("returning template counted as new: %d", n)
	}
	qoi := qs.QoI(2)
	if len(qoi) != 2 {
		t.Fatalf("QoI = %d templates", len(qoi))
	}
	// After the window passes, template 2 ages out.
	qs.Observe(5, []*query.Query{tq(1, "o_date")})
	qoi = qs.QoI(5)
	if len(qoi) != 1 || qoi[0].TemplateID != 1 {
		t.Fatalf("stale template not aged out: %d in QoI", len(qoi))
	}
}

func TestQueryStoreFrequency(t *testing.T) {
	qs := NewQueryStore()
	qs.Observe(1, []*query.Query{tq(1, "o_date"), tq(1, "o_date"), tq(1, "o_date")})
	if len(qs.bySig) != 1 {
		t.Fatalf("len = %d", len(qs.bySig))
	}
	for _, ti := range qs.bySig {
		if ti.Frequency != 3 || ti.LastRoundCount != 3 {
			t.Fatalf("template info = %+v", ti)
		}
	}
}

func TestQueryStoreShiftIntensity(t *testing.T) {
	qs := NewQueryStore()
	qs.Observe(1, []*query.Query{tq(1, "o_date"), tq(2, "o_status")})
	if got := qs.ShiftIntensity(); got != 1 {
		t.Fatalf("first round intensity = %v, want 1", got)
	}
	qs.Observe(2, []*query.Query{tq(1, "o_date"), tq(2, "o_status")})
	if got := qs.ShiftIntensity(); got != 0 {
		t.Fatalf("repeat round intensity = %v, want 0", got)
	}
	qs.Observe(3, []*query.Query{tq(1, "o_date"), tq(3, "o_priority")})
	if got := qs.ShiftIntensity(); got != 0.5 {
		t.Fatalf("half-new round intensity = %v, want 0.5", got)
	}
}

func TestQueryStoreEmptyIntensity(t *testing.T) {
	qs := NewQueryStore()
	if qs.ShiftIntensity() != 0 {
		t.Fatal("empty store should report zero intensity")
	}
}

func TestQueryStoreLatestInstanceWins(t *testing.T) {
	qs := NewQueryStore()
	a := tq(1, "o_date")
	qs.Observe(1, []*query.Query{a})
	b := tq(1, "o_date")
	b.Filters[0].Lo = 99
	qs.Observe(2, []*query.Query{b})
	qoi := qs.QoI(2)
	if len(qoi) != 1 || qoi[0].Filters[0].Lo != 99 {
		t.Fatal("QoI did not keep the latest instance")
	}
}

func TestRestoreQueryStoreKeysByInstance(t *testing.T) {
	// A template is keyed by its instance's Signature(), not by the
	// stored string, which older builds wrote without the joins.
	joined := tq(1, "o_date")
	joined.Tables = append(joined.Tables, "customer")
	joined.Joins = []query.Join{{LeftTable: "orders", LeftColumn: "o_custkey", RightTable: "customer", RightColumn: "c_id"}}
	qs, err := RestoreQueryStore(&QueryStoreSnapshot{
		LastRound: 1,
		Templates: []TemplateInfo{
			{ID: 1, Signature: "customer,orders|orders.o_date=|", Frequency: 1, FirstSeen: 1, LastSeen: 1, LastInstance: joined},
			{ID: 2, Signature: "orders|orders.o_status=|", Frequency: 1, FirstSeen: 1, LastSeen: 1, LastInstance: tq(2, "o_status")},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	again := tq(1, "o_date")
	again.Tables, again.Joins = joined.Tables, joined.Joins
	if n := qs.Observe(2, []*query.Query{again, tq(2, "o_status")}); n != 0 {
		t.Fatalf("restored templates seen as new: %d", n)
	}
	if got := qs.Snapshot().Templates[0].Signature; got != joined.Signature() {
		t.Fatalf("restored template keeps stored signature %q, want %q", got, joined.Signature())
	}

	// Two templates of one shape can only be hand-made: refuse them.
	_, err = RestoreQueryStore(&QueryStoreSnapshot{Templates: []TemplateInfo{
		{ID: 1, Signature: "a", LastInstance: tq(1, "o_date")},
		{ID: 2, Signature: "b", LastInstance: tq(2, "o_date")},
	}})
	if err == nil || !strings.Contains(err.Error(), "two templates of shape") {
		t.Fatalf("duplicate shape: err = %v", err)
	}
}
