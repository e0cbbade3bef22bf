package linalg

import (
	"fmt"
	"math"

	"dbabandits/internal/floatenc"
)

// snapshotBackend is the backend name every RidgeSnapshot records. Older
// builds also wrote "chol" for a factored Cholesky backend; the field
// stays so those snapshots are recognised and refused.
const snapshotBackend = "sm"

// RidgeSnapshot is the serialisable state of a RidgeState: everything a
// fresh process needs to continue the regression bit for bit. Float
// payloads are packed via floatenc (base64 of the IEEE-754 bits), so
// no decimal round-trip can perturb the restored matrices; a restored
// state's every subsequent Theta/width/ObserveSparse result is byte-identical
// to the uninterrupted state's. The theta memo is deliberately not
// persisted — it is a pure function of the persisted state and is
// recomputed (to the same bits) on first use.
type RidgeSnapshot struct {
	// Backend is always "sm" (Sherman–Morrison).
	Backend string
	Dim     int
	Lambda  float64
	Updates int
	// B is the response accumulator (floatenc, Dim values).
	B string

	// The scatter matrix, its maintained inverse, and the position in
	// the rebase schedule. Older builds also recorded a "Drift" score
	// for a second rebase trigger; decoding ignores it.
	V           string
	VInv        string
	SinceRebase int `json:",omitempty"`

	// RebaseEvery and DriftThreshold are the rebase-schedule overrides
	// older builds could record. They are only read, to refuse a
	// snapshot that carries one.
	RebaseEvery    int     `json:",omitempty"`
	DriftThreshold float64 `json:",omitempty"`
}

// RemovedOptionError reports state written under a ridge option that
// no longer exists: the factored Cholesky backend, a rebase-schedule
// override, or a low-rank Forget budget. Continuing such a state under
// the one remaining configuration would silently change its arithmetic,
// so it is refused instead.
type RemovedOptionError struct {
	Option string // the option's name as it was recorded
	Value  string // the recorded value
}

func (e *RemovedOptionError) Error() string {
	return fmt.Sprintf("ridge option %s=%s is no longer supported: only the Sherman–Morrison ridge with the fixed rebase schedule remains",
		e.Option, e.Value)
}

// NonFiniteError reports a ridge snapshot field holding a NaN or ±Inf.
type NonFiniteError struct {
	Field string
}

func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("linalg: ridge snapshot %s holds a non-finite value", e.Field)
}

// Snapshot captures the state.
func (rs *RidgeState) Snapshot() *RidgeSnapshot {
	return &RidgeSnapshot{
		Backend:     snapshotBackend,
		Dim:         rs.Dim,
		Lambda:      rs.Lambda,
		Updates:     rs.updates,
		B:           floatenc.Encode(rs.B),
		V:           floatenc.Encode(rs.V.Data),
		VInv:        floatenc.Encode(rs.VInv.Data),
		SinceRebase: rs.sinceRebase,
	}
}

// RestoreRidgeState rebuilds the state a snapshot was taken from,
// positioned exactly where it was: same matrices, same counters, same
// rebase-schedule position. The restored state's subsequent results are
// bit-identical to the original's. A snapshot from another backend or
// with a rebase-schedule override fails with *RemovedOptionError; a NaN
// or ±Inf in lambda or any payload fails with *NonFiniteError.
func RestoreRidgeState(s *RidgeSnapshot) (*RidgeState, error) {
	if s == nil {
		return nil, fmt.Errorf("linalg: nil ridge snapshot")
	}
	if s.Backend != snapshotBackend {
		return nil, &RemovedOptionError{Option: "backend", Value: s.Backend}
	}
	if s.RebaseEvery != 0 {
		return nil, &RemovedOptionError{Option: "RebaseEvery", Value: fmt.Sprint(s.RebaseEvery)}
	}
	if s.DriftThreshold != 0 {
		return nil, &RemovedOptionError{Option: "DriftThreshold", Value: fmt.Sprint(s.DriftThreshold)}
	}
	if !finite(s.Lambda) {
		return nil, &NonFiniteError{Field: "Lambda"}
	}
	if s.Dim <= 0 || s.Lambda <= 0 {
		return nil, fmt.Errorf("linalg: ridge snapshot with dim %d, lambda %g", s.Dim, s.Lambda)
	}
	b, err := decodeFinite("B", s.B, s.Dim)
	if err != nil {
		return nil, err
	}
	v, err := decodeFinite("V", s.V, s.Dim*s.Dim)
	if err != nil {
		return nil, err
	}
	vinv, err := decodeFinite("VInv", s.VInv, s.Dim*s.Dim)
	if err != nil {
		return nil, err
	}
	return &RidgeState{
		Dim:         s.Dim,
		V:           &Matrix{Rows: s.Dim, Cols: s.Dim, Data: v},
		VInv:        &Matrix{Rows: s.Dim, Cols: s.Dim, Data: vinv},
		B:           b,
		Lambda:      s.Lambda,
		updates:     s.Updates,
		sinceRebase: s.SinceRebase,
	}, nil
}

// decodeFinite decodes the n floats of a snapshot field, refusing NaN
// and ±Inf. Decoding precedes any allocation sized by the snapshot's
// dimension, so a bogus Dim fails on the payload length instead.
func decodeFinite(field, enc string, n int) ([]float64, error) {
	vals, err := floatenc.DecodeLen(enc, n)
	if err != nil {
		return nil, fmt.Errorf("linalg: ridge snapshot %s: %w", field, err)
	}
	for _, v := range vals {
		if !finite(v) {
			return nil, &NonFiniteError{Field: field}
		}
	}
	return vals, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
