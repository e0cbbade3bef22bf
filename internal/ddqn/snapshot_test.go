package ddqn

import (
	"bytes"
	"encoding/json"
	"testing"

	"dbabandits/internal/floatenc"
	"dbabandits/internal/index"
	"dbabandits/internal/linalg"
	"dbabandits/internal/mab"
)

// driveAgent runs the agent through `rounds` select/observe cycles over
// a fixed candidate set and returns a fingerprint of every selection.
func driveAgent(a *Agent, rounds int) []string {
	dim := a.online.sizes[0]
	var arms []*mab.Arm
	var ctxs []linalg.Vector
	for i := 0; i < 5; i++ {
		arm := &mab.Arm{Index: index.New("t", []string{string(rune('a' + i))}, nil), Table: "t", SizeBytes: 10}
		x := linalg.NewVector(dim)
		x[i%dim] = 1
		x[(i+1)%dim] = 0.5
		arms = append(arms, arm)
		ctxs = append(ctxs, x)
	}
	var picks []string
	for r := 0; r < rounds; r++ {
		sel := a.SelectConfig(arms, ctxs, 35)
		line := ""
		var sc []linalg.Vector
		var rw []float64
		for _, s := range sel {
			line += s.ID() + ";"
			for i, arm := range arms {
				if arm.ID() == s.ID() {
					sc = append(sc, ctxs[i])
					rw = append(rw, float64(10*(i%3)-5))
				}
			}
		}
		picks = append(picks, line)
		a.Observe(sc, rw, ctxs)
	}
	return picks
}

// TestAgentSnapshotRoundTrip snapshots a live agent mid-run (through a
// JSON round-trip), restores it into a freshly constructed agent, and
// requires identical selections every remaining round and identical
// final snapshots — exploration draws, minibatch draws, the replay ring
// and network weights all resume bit for bit. The agent starts with a
// wrapped replay buffer and near the end of its exploration decay, so
// the resumed picks are mostly greedy, read off the restored networks.
func TestAgentSnapshotRoundTrip(t *testing.T) {
	opts := AgentOptions{Seed: 11}
	a := NewAgent(4, opts)
	fillReplay(a, bufferSize+5)
	a.samples = epsDecaySamples - 30
	driveAgent(a, 12)

	raw, err := json.Marshal(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap AgentSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	b := NewAgent(4, opts)
	if err := b.Restore(&snap); err != nil {
		t.Fatal(err)
	}

	wantPicks := driveAgent(a, 10)
	gotPicks := driveAgent(b, 10)
	for i := range wantPicks {
		if gotPicks[i] != wantPicks[i] {
			t.Fatalf("round %d: restored agent picked %q, want %q", i, gotPicks[i], wantPicks[i])
		}
	}
	ja, _ := json.Marshal(a.Snapshot())
	jb, _ := json.Marshal(b.Snapshot())
	if !bytes.Equal(ja, jb) {
		t.Fatal("final snapshots diverge")
	}
}

// TestAgentSnapshotDedupsNextSets pins the payload optimisation: all
// transitions recorded by one Observe call share one candidate-set
// table entry.
func TestAgentSnapshotDedupsNextSets(t *testing.T) {
	a := NewAgent(3, AgentOptions{Seed: 7})
	next := []linalg.Vector{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	// Two rounds, three transitions each, same candidate set each time.
	for r := 0; r < 2; r++ {
		a.Observe([]linalg.Vector{{1, 1, 0}, {0, 1, 1}, {1, 0, 1}}, []float64{1, 2, 3}, next)
	}
	s := a.Snapshot()
	if len(s.Buffer) != 6 {
		t.Fatalf("buffer entries = %d, want 6", len(s.Buffer))
	}
	if len(s.NextSets) != 1 {
		t.Fatalf("candidate-set table has %d entries, want 1 (content-identical sets must dedup)", len(s.NextSets))
	}
	for _, tr := range s.Buffer {
		if tr.NextSet != 0 {
			t.Fatalf("transition references set %d", tr.NextSet)
		}
	}
}

// TestAgentRestoreErrors pins the refusal paths.
func TestAgentRestoreErrors(t *testing.T) {
	a := NewAgent(4, AgentOptions{Seed: 1})
	if err := a.Restore(nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	s := NewAgent(6, AgentOptions{Seed: 1}).Snapshot()
	if err := a.Restore(s); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	b := NewAgent(4, AgentOptions{Seed: 1})
	driveAgent(b, 8)
	over := b.Snapshot()
	for len(over.Buffer) <= bufferSize {
		over.Buffer = append(over.Buffer, over.Buffer[0])
	}
	if err := a.Restore(over); err == nil {
		t.Fatal("oversized buffer accepted")
	}
	past := b.Snapshot()
	past.BufPos = bufferSize
	if err := a.Restore(past); err == nil {
		t.Fatal("ring position past the buffer accepted")
	}
	// Replay trains on every stored context and bootstraps through the
	// target network, so a short context or a target of another layout
	// would panic at the next Observe; Restore refuses both.
	short := floatenc.Encode([]float64{1})
	target := b.Snapshot()
	target.Target = NewAgent(6, AgentOptions{Seed: 1}).Snapshot().Target
	if err := a.Restore(target); err == nil {
		t.Fatal("target network of another layout accepted")
	}
	x := b.Snapshot()
	x.Buffer[0].X = short
	if err := a.Restore(x); err == nil {
		t.Fatal("short replayed context accepted")
	}
	next := b.Snapshot()
	next.NextSets[0][0] = short
	if err := a.Restore(next); err == nil {
		t.Fatal("short bootstrap candidate accepted")
	}
}
