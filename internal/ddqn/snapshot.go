package ddqn

import (
	"fmt"
	"slices"
	"strings"

	"dbabandits/internal/floatenc"
	"dbabandits/internal/snaprand"
)

// This file is the serialisation seam of the DDQN baseline. The agent's
// state is its two networks, the replay buffer, the RNG position, and
// the schedule counters. The RNG is persisted as (seed, draws) — the
// snaprand wrapper counts source advances, so a restored generator is
// positioned exactly where the snapshotted one was and every subsequent
// exploration decision and minibatch draw is identical.
//
// The replay buffer dominates the payload: every transition stores the
// next decision point's full candidate set, and all transitions from
// one Observe call share the same set. Snapshots deduplicate the sets
// by content, so a buffer holding R rounds of feedback stores each
// round's candidates once instead of once per chosen arm.

// MLPSnapshot is the serialisable parameter state of a network. The
// forward caches are scratch and are rebuilt zeroed on restore.
type MLPSnapshot struct {
	Sizes   []int
	Weights []string // floatenc, one per layer
	Biases  []string
}

// Snapshot captures the network's parameters.
func (m *MLP) Snapshot() *MLPSnapshot {
	s := &MLPSnapshot{Sizes: append([]int(nil), m.sizes...)}
	for l := range m.weights {
		s.Weights = append(s.Weights, floatenc.Encode(m.weights[l]))
		s.Biases = append(s.Biases, floatenc.Encode(m.biases[l]))
	}
	return s
}

// RestoreMLP rebuilds a network from its snapshot.
func RestoreMLP(s *MLPSnapshot) (*MLP, error) {
	if s == nil || len(s.Sizes) < 2 {
		return nil, fmt.Errorf("ddqn: invalid network snapshot")
	}
	if len(s.Weights) != len(s.Sizes)-1 || len(s.Biases) != len(s.Sizes)-1 {
		return nil, fmt.Errorf("ddqn: network snapshot has %d weight layers for %d sizes", len(s.Weights), len(s.Sizes))
	}
	m := &MLP{sizes: append([]int(nil), s.Sizes...)}
	for l := 1; l < len(s.Sizes); l++ {
		in, out := s.Sizes[l-1], s.Sizes[l]
		w, err := floatenc.DecodeLen(s.Weights[l-1], in*out)
		if err != nil {
			return nil, fmt.Errorf("ddqn: network layer %d weights: %w", l, err)
		}
		b, err := floatenc.DecodeLen(s.Biases[l-1], out)
		if err != nil {
			return nil, fmt.Errorf("ddqn: network layer %d biases: %w", l, err)
		}
		m.weights = append(m.weights, w)
		m.biases = append(m.biases, b)
	}
	m.acts = make([][]float64, len(m.sizes))
	m.pre = make([][]float64, len(m.sizes))
	for l, sz := range m.sizes {
		m.acts[l] = make([]float64, sz)
		m.pre[l] = make([]float64, sz)
	}
	return m, nil
}

// TransitionSnapshot is one replay-buffer entry; NextSet indexes the
// deduplicated candidate-set table (-1 for a terminal transition).
type TransitionSnapshot struct {
	X       string
	R       float64
	NextSet int
}

// AgentSnapshot is the serialisable state of the DDQN agent.
type AgentSnapshot struct {
	Seed  int64
	Draws uint64

	Online *MLPSnapshot
	Target *MLPSnapshot

	// NextSets is the deduplicated table of next-decision candidate
	// sets; each entry is the set's contexts, floatenc-encoded.
	NextSets [][]string           `json:",omitempty"`
	Buffer   []TransitionSnapshot `json:",omitempty"`
	BufPos   int
	Full     bool

	Samples     int
	TrainRounds int
}

// Snapshot captures the agent's state.
func (a *Agent) Snapshot() *AgentSnapshot {
	s := &AgentSnapshot{
		Seed:        a.rng.Seed(),
		Draws:       a.rng.Draws(),
		Online:      a.online.Snapshot(),
		Target:      a.target.Snapshot(),
		BufPos:      a.bufPos,
		Full:        a.full,
		Samples:     a.samples,
		TrainRounds: a.trainRounds,
	}
	setIdx := map[string]int{}
	for _, tr := range a.buffer {
		ts := TransitionSnapshot{X: floatenc.Encode(tr.x), R: tr.r, NextSet: -1}
		if len(tr.next) > 0 {
			enc := make([]string, len(tr.next))
			for i, x := range tr.next {
				enc[i] = floatenc.Encode(x)
			}
			key := strings.Join(enc, "|")
			idx, ok := setIdx[key]
			if !ok {
				idx = len(s.NextSets)
				setIdx[key] = idx
				s.NextSets = append(s.NextSets, enc)
			}
			ts.NextSet = idx
		}
		s.Buffer = append(s.Buffer, ts)
	}
	return s
}

// Restore replaces the agent's state with the snapshot's. The agent
// must have been constructed (NewAgent) with the same options the
// snapshotted agent ran under: both networks must have the agent's
// layout, and every replayed context the networks' input dimension.
func (a *Agent) Restore(s *AgentSnapshot) error {
	if s == nil || s.Online == nil || s.Target == nil {
		return fmt.Errorf("ddqn: nil agent snapshot")
	}
	layout := a.online.sizes
	if !slices.Equal(s.Online.Sizes, layout) || !slices.Equal(s.Target.Sizes, layout) {
		return fmt.Errorf("ddqn: agent snapshot network layouts %v and %v, agent built for %v",
			s.Online.Sizes, s.Target.Sizes, layout)
	}
	online, err := RestoreMLP(s.Online)
	if err != nil {
		return err
	}
	target, err := RestoreMLP(s.Target)
	if err != nil {
		return err
	}
	if s.BufPos < 0 || len(s.Buffer) > bufferSize || (len(s.Buffer) > 0 && s.BufPos >= bufferSize) {
		return fmt.Errorf("ddqn: agent snapshot buffer (%d entries, pos %d) exceeds the replay capacity %d",
			len(s.Buffer), s.BufPos, bufferSize)
	}

	// Decode the deduplicated candidate sets once; transitions that
	// shared a set before the snapshot share the decoded slice again.
	nextSets := make([][][]float64, len(s.NextSets))
	for i, enc := range s.NextSets {
		set := make([][]float64, len(enc))
		for j, e := range enc {
			x, err := floatenc.DecodeLen(e, layout[0])
			if err != nil {
				return fmt.Errorf("ddqn: agent snapshot candidate set %d: %w", i, err)
			}
			set[j] = x
		}
		nextSets[i] = set
	}
	buffer := make([]transition, 0, bufferSize)
	for i, ts := range s.Buffer {
		x, err := floatenc.DecodeLen(ts.X, layout[0])
		if err != nil {
			return fmt.Errorf("ddqn: agent snapshot transition %d: %w", i, err)
		}
		tr := transition{x: x, r: ts.R}
		if ts.NextSet >= 0 {
			if ts.NextSet >= len(nextSets) {
				return fmt.Errorf("ddqn: agent snapshot transition %d references candidate set %d of %d", i, ts.NextSet, len(nextSets))
			}
			tr.next = nextSets[ts.NextSet]
		}
		buffer = append(buffer, tr)
	}

	a.rng = snaprand.Restore(s.Seed, s.Draws)
	a.online = online
	a.target = target
	a.buffer = buffer
	a.bufPos = s.BufPos
	a.full = s.Full
	a.samples = s.Samples
	a.trainRounds = s.TrainRounds
	return nil
}
