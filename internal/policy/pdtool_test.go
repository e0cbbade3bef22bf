package policy

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"dbabandits/internal/index"
	"dbabandits/internal/query"
)

func sortedRounds(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for r := range m {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

func TestInvocationRoundsStatic(t *testing.T) {
	if got := sortedRounds(InvocationRounds("static", 25)); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("static 25 = %v, want [2]", got)
	}
	if got := InvocationRounds("static", 1); len(got) != 0 {
		t.Fatalf("static 1 = %v, want none (no round 2 exists)", sortedRounds(got))
	}
}

func TestInvocationRoundsShiftingAligned(t *testing.T) {
	// The paper's setting: 4 groups x 20 rounds, retrained on the round
	// after each group's first round.
	if got := sortedRounds(InvocationRounds("shifting", 80)); !reflect.DeepEqual(got, []int{2, 22, 42, 62}) {
		t.Fatalf("shifting 80 = %v, want [2 22 42 62]", got)
	}
	if got := sortedRounds(InvocationRounds("shifting", 8)); !reflect.DeepEqual(got, []int{2, 4, 6, 8}) {
		t.Fatalf("shifting 8 = %v, want [2 4 6 8]", got)
	}
}

func TestInvocationRoundsShiftingRagged(t *testing.T) {
	// Totals not divisible by 4 used to collapse every group onto round 2
	// (g*perGroup+2 with perGroup == 0). Each group must still get its
	// own invocation, all within the run.
	cases := []struct {
		total int
		want  []int
	}{
		{6, []int{2, 3, 5, 6}},
		{7, []int{2, 3, 5, 7}},
		{10, []int{2, 4, 7, 9}},
		{2, []int{2}}, // degenerate: capped at the run's length
	}
	for _, c := range cases {
		got := sortedRounds(InvocationRounds("shifting", c.total))
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("shifting %d = %v, want %v", c.total, got, c.want)
		}
		for _, r := range got {
			if r < 1 || r > c.total {
				t.Errorf("shifting %d: invocation round %d outside the run", c.total, r)
			}
		}
	}
	// The regression the fix targets: more than one distinct invocation
	// for any ragged total with at least a handful of rounds.
	if got := InvocationRounds("shifting", 6); len(got) < 2 {
		t.Fatalf("shifting 6 collapsed to %v", sortedRounds(got))
	}
}

func TestInvocationRoundsRandom(t *testing.T) {
	if got := sortedRounds(InvocationRounds("random", 13)); !reflect.DeepEqual(got, []int{5, 9, 13}) {
		t.Fatalf("random 13 = %v, want [5 9 13]", got)
	}
	if got := InvocationRounds("random", 4); len(got) != 0 {
		t.Fatalf("random 4 = %v, want none", sortedRounds(got))
	}
}

func TestInvocationRoundsUnknownRegime(t *testing.T) {
	if got := InvocationRounds("hybrid-oltp", 40); len(got) != 0 {
		t.Fatalf("unknown regime = %v, want none", sortedRounds(got))
	}
}

// The HTAP regime's analytical side is static, so the offline tool
// shares the static schedule: one invocation at round 2.
func TestInvocationRoundsHTAP(t *testing.T) {
	if got := sortedRounds(InvocationRounds("htap", 40)); len(got) != 1 || got[0] != 2 {
		t.Fatalf("htap schedule = %v, want [2]", got)
	}
}

// TestPDToolKeepsTrailingWindows pins that the policy holds only the
// windows a retraining can read: after 40 observed rounds it keeps the
// last pdtoolTrainWindow, and restoring an older snapshot that carries
// every window (and the "History" key older builds wrote) keeps the same
// trailing windows.
func TestPDToolKeepsTrailingWindows(t *testing.T) {
	window := func(r int) []*query.Query { return []*query.Query{{TemplateID: r}} }
	lastIDs := func(ws [][]*query.Query) []int {
		ids := make([]int, len(ws))
		for i, w := range ws {
			ids[i] = w[0].TemplateID
		}
		return ids
	}
	want := []int{37, 38, 39, 40}

	p := &pdtoolPolicy{invocations: map[int]bool{}, cfg: index.NewConfig()}
	p.Recommend(1, nil)
	for r := 2; r <= 41; r++ {
		p.Recommend(r, window(r-1))
	}
	if got := lastIDs(p.windows); !reflect.DeepEqual(got, want) {
		t.Fatalf("kept windows %v, want %v", got, want)
	}

	var all [][]*query.Query
	for r := 1; r <= 40; r++ {
		all = append(all, window(r))
	}
	legacy, err := json.Marshal(map[string]any{"History": all[39], "Windows": all})
	if err != nil {
		t.Fatal(err)
	}
	restored := &pdtoolPolicy{invocations: map[int]bool{}, cfg: index.NewConfig()}
	if err := restored.Restore(legacy); err != nil {
		t.Fatal(err)
	}
	if got := lastIDs(restored.windows); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored windows %v, want %v", got, want)
	}
}
