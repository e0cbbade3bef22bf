package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"dbabandits/internal/index"
	"dbabandits/internal/linalg"
	"dbabandits/internal/policy"
	"dbabandits/internal/query"
)

// CheckpointVersion is the on-disk checkpoint format version. Loading a
// checkpoint with a different version is an error, not a guess.
const CheckpointVersion = 1

// Checkpoint is the versioned on-disk image of a serving session at a
// window boundary: everything needed to rebuild the environment
// (deterministic from its scalars), the policy's serialised state, the
// materialised and last-known-safe configurations, the guardrail
// counters, and the last served window's statements (stored verbatim —
// an externally fed stream cannot be replayed from a seed). A session
// restored from a checkpoint recommends byte-identically to one that
// was never interrupted.
type Checkpoint struct {
	Version int

	// Environment rebuild scalars — data generation is deterministic in
	// these, so the checkpoint does not carry the database.
	Benchmark     string
	ScaleFactor   float64
	MaxStoredRows int
	Seed          int64
	MemoryBudgetX float64

	// Policy rebuild.
	Policy string
	// RidgeBackend and ForgetRank are the ridge options older builds
	// recorded ("sm" and 0 at their default flags). They are only read:
	// Restore refuses a checkpoint written with any other value.
	RidgeBackend string `json:",omitempty"`
	ForgetRank   int    `json:",omitempty"`
	Guardrail    GuardrailOptions

	// Serving position.
	Window     int
	LastWindow []*query.Query `json:",omitempty"`
	Config     []index.Def    `json:",omitempty"`

	// Guardrail state.
	SafeConfig  []index.Def `json:",omitempty"`
	Streak      int         `json:",omitempty"`
	Cooldown    int         `json:",omitempty"`
	Quarantines int         `json:",omitempty"`

	// PolicyState is the policy's Snapshotter payload, opaque here.
	PolicyState json.RawMessage
}

// Checkpoint captures the session at the current window boundary. It
// errors if the policy does not implement policy.Snapshotter or refuses
// to snapshot (e.g. mid-round state).
func (s *Session) Checkpoint() (*Checkpoint, error) {
	snap, ok := s.pol.(policy.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("serve: policy %q does not support checkpointing", s.opts.Policy)
	}
	state, err := snap.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("serve: checkpoint window %d: %w", s.window, err)
	}
	return &Checkpoint{
		Version:       CheckpointVersion,
		Benchmark:     s.opts.Benchmark,
		ScaleFactor:   s.opts.ScaleFactor,
		MaxStoredRows: s.opts.MaxStoredRows,
		Seed:          s.opts.Seed,
		MemoryBudgetX: s.opts.MemoryBudgetX,
		Policy:        s.opts.Policy,
		Guardrail:     s.opts.Guardrail,
		Window:        s.window,
		LastWindow:    s.lastWindow,
		Config:        s.cfg.Defs(),
		SafeConfig:    s.guard.safe.Defs(),
		Streak:        s.guard.streak,
		Cooldown:      s.guard.cooldown,
		Quarantines:   s.guard.quarantines,
		PolicyState:   state,
	}, nil
}

// WriteCheckpoint captures the session and writes it to path
// atomically: the image lands in a temporary file first and is renamed
// into place, so a crash mid-write never leaves a torn checkpoint where
// a good one stood.
func (s *Session) WriteCheckpoint(path string) error {
	ck, err := s.Checkpoint()
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(ck, "", " ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// LoadCheckpoint reads and validates a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ck Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("serve: checkpoint %s: %w", path, err)
	}
	if ck.Version != CheckpointVersion {
		return nil, fmt.Errorf("serve: checkpoint %s: version %d, this build reads version %d",
			path, ck.Version, CheckpointVersion)
	}
	if ck.Policy == "" {
		return nil, fmt.Errorf("serve: checkpoint %s: missing policy name", path)
	}
	return &ck, nil
}

// Restore rebuilds a serving session from a checkpoint: the environment
// and a fresh policy are reconstructed from the recorded options, the
// policy's state is restored from the snapshot, and the serving
// position, configurations and guardrail counters are reinstated. The
// restored session's next Feed behaves exactly as the checkpointed
// session's would have. A checkpoint written with a removed ridge option
// (another backend, or a low-rank Forget budget) fails with
// *linalg.RemovedOptionError rather than resuming under different
// arithmetic.
func Restore(ck *Checkpoint) (*Session, error) {
	if ck.Version != CheckpointVersion {
		return nil, fmt.Errorf("serve: checkpoint version %d, this build reads version %d",
			ck.Version, CheckpointVersion)
	}
	if ck.RidgeBackend != "" && ck.RidgeBackend != "sm" {
		return nil, fmt.Errorf("serve: checkpoint: %w",
			&linalg.RemovedOptionError{Option: "RidgeBackend", Value: ck.RidgeBackend})
	}
	if ck.ForgetRank != 0 {
		return nil, fmt.Errorf("serve: checkpoint: %w",
			&linalg.RemovedOptionError{Option: "ForgetRank", Value: fmt.Sprint(ck.ForgetRank)})
	}
	s, err := New(Options{
		Benchmark:     ck.Benchmark,
		ScaleFactor:   ck.ScaleFactor,
		MaxStoredRows: ck.MaxStoredRows,
		Seed:          ck.Seed,
		MemoryBudgetX: ck.MemoryBudgetX,
		Policy:        ck.Policy,
		Guardrail:     ck.Guardrail,
	})
	if err != nil {
		return nil, err
	}
	snap, ok := s.pol.(policy.Snapshotter)
	if !ok {
		s.Close()
		return nil, fmt.Errorf("serve: policy %q does not support checkpointing", ck.Policy)
	}
	if err := snap.Restore(ck.PolicyState); err != nil {
		s.Close()
		return nil, fmt.Errorf("serve: restore policy %q: %w", ck.Policy, err)
	}
	s.window = ck.Window
	s.lastWindow = ck.LastWindow
	s.cfg = index.ConfigFromDefs(ck.Config)
	s.guard.safe = index.ConfigFromDefs(ck.SafeConfig)
	s.guard.streak = ck.Streak
	s.guard.cooldown = ck.Cooldown
	s.guard.quarantines = ck.Quarantines
	return s, nil
}

// RestoreFile loads a checkpoint from path and restores a session.
func RestoreFile(path string) (*Session, error) {
	ck, err := LoadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	return Restore(ck)
}
