package main

import (
	"testing"
	"time"
)

// tree is a round [0,100] with children A [10,40] and B [50,90]; A has a
// child C [20,30]. Indexes: round 0, A 1, C 2, B 3.
func tree() []span {
	return []span{
		{Layer: spRound, Start: 0, End: 100, Parent: -1, ID: 1},
		{Layer: spRecommend, Start: 10, End: 40, Parent: 0, ID: 1},
		{Layer: spPlan, Start: 20, End: 30, Parent: 1, ID: 1},
		{Layer: spExecute, Start: 50, End: 90, Parent: 0, ID: 1},
	}
}

func TestSelfTimes(t *testing.T) {
	spans := tree()
	if err := validate(spans); err != nil {
		t.Fatal(err)
	}
	agg := aggregate(spans)
	want := map[layer]time.Duration{spRound: 30, spRecommend: 20, spPlan: 10, spExecute: 40}
	var sum time.Duration
	for l, self := range want {
		if got := agg[l].self; got != self {
			t.Errorf("%s self = %d, want %d", l, got, self)
		}
		sum += agg[l].self
	}
	if sum != agg[spRound].total {
		t.Errorf("self times add to %d, round lasts %d", sum, agg[spRound].total)
	}
}

func TestValidateRejectsBadTrees(t *testing.T) {
	outside := tree()
	outside[2].End = 45 // C ends after its parent A
	overlap := tree()
	overlap[3].Start = 35 // B starts before its sibling A ends
	reversed := tree()
	reversed[3].End = 40
	for name, spans := range map[string][]span{"outside": outside, "overlap": overlap, "reversed": reversed} {
		if validate(spans) == nil {
			t.Errorf("%s: validate accepted a bad tree", name)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer(8)
	tr.setID(3)
	root := tr.begin(spRound, noAllocs)
	a := tr.begin(spRecommend, countAllocs)
	sink = make([]byte, 1<<16) // large objects are counted as they are allocated
	tr.end(a, countAllocs)
	b := tr.begin(spPlan, countAllocs)
	tr.end(b, countAllocs)
	c := tr.begin(spExecute, noAllocs)
	tr.drop(c)
	tr.end(root, noAllocs)

	if len(tr.spans) != 3 {
		t.Fatalf("%d spans, want 3 (the dropped one removed)", len(tr.spans))
	}
	for i, want := range []int32{-1, 0, 0} {
		if got := tr.spans[i].Parent; got != want {
			t.Errorf("span %d parent = %d, want %d", i, got, want)
		}
		if tr.spans[i].ID != 3 {
			t.Errorf("span %d id = %d, want 3", i, tr.spans[i].ID)
		}
	}
	if err := validate(tr.spans); err != nil {
		t.Fatal(err)
	}
	if tr.spans[a].Allocs < 1 || tr.spans[a].AllocBytes < 1<<16 {
		t.Errorf("sampling saw %d allocs, %d bytes; want the 64 KiB slice", tr.spans[a].Allocs, tr.spans[a].AllocBytes)
	}
	var self time.Duration
	for _, ls := range aggregate(tr.spans) {
		self += ls.self
	}
	if self != tr.spans[root].dur() {
		t.Errorf("self times add to %v, round lasts %v", self, tr.spans[root].dur())
	}

	var none *tracer // untraced passes call the same methods on nil
	none.setID(1)
	none.end(none.begin(spRound, countAllocs), countAllocs)
}

var sink []byte
