package linalg

import (
	"fmt"
	"math"

	"dbabandits/internal/floatenc"
)

// RidgeSnapshot is the serialisable state of a RidgeState: everything a
// fresh process needs to continue the regression bit for bit. Float
// payloads are packed via floatenc (base64 of the IEEE-754 bits), so
// no decimal round-trip can perturb the restored matrices; a restored
// state's every subsequent Theta/width/ObserveSparse result is byte-identical
// to the uninterrupted state's. Older builds also wrote a "Backend" key
// and a "Drift" score; decoding ignores both.
type RidgeSnapshot struct {
	Dim     int
	Lambda  float64
	Updates int
	// B is the response accumulator (floatenc, Dim values).
	B string

	// The scatter matrix, its maintained inverse, and the position in
	// the rebase schedule.
	V           string
	VInv        string
	SinceRebase int `json:",omitempty"`
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
// bit-identical to the original's. A NaN or ±Inf in lambda or any
// payload fails with *NonFiniteError.
func RestoreRidgeState(s *RidgeSnapshot) (*RidgeState, error) {
	if s == nil {
		return nil, fmt.Errorf("linalg: nil ridge snapshot")
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
