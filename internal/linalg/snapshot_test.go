package linalg

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dbabandits/internal/floatenc"
)

// feed drives a state through a mixed observation history: fully dense
// and sparse contexts, interleaved theta reads, and a mid-stream Forget.
func feed(t *testing.T, core *RidgeState, dim, steps int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		switch i % 4 {
		case 0, 1:
			x := NewVector(dim)
			for j := range x {
				x[j] = rng.NormFloat64()
			}
			core.ObserveSparse(SparseFromDense(x), rng.Float64()*10-2)
		case 2:
			nnz := 1 + rng.Intn(dim/2)
			sx := SparseVector{Dim: dim}
			for _, j := range rng.Perm(dim)[:nnz] {
				sx.Idx = append(sx.Idx, j)
				sx.Val = append(sx.Val, rng.NormFloat64())
			}
			core.ObserveSparse(sx, rng.Float64())
		default:
			core.Theta()
			if i == steps/2 {
				core.Forget(0.3)
			}
		}
	}
}

// fingerprint captures bit-exact theta and confidence widths.
func fingerprint(core *RidgeState, dim int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	var out []uint64
	for _, v := range core.Theta() {
		out = append(out, math.Float64bits(v))
	}
	x := NewVector(dim)
	for j := range x {
		x[j] = rng.NormFloat64()
	}
	xs := []SparseVector{SparseFromDense(x)}
	for k := 0; k < 5; k++ {
		sx := SparseVector{Dim: dim}
		for _, j := range rng.Perm(dim)[:2+k%3] {
			sx.Idx = append(sx.Idx, j)
			sx.Val = append(sx.Val, rng.NormFloat64())
		}
		xs = append(xs, sx)
	}
	batch := make([]float64, len(xs))
	core.ConfidenceWidthBatch(xs, batch)
	for _, v := range batch {
		out = append(out, math.Float64bits(v))
	}
	return out
}

// TestSnapshotRoundTrip snapshots a state mid-history (through a JSON
// round-trip, as a checkpoint would), restores it, continues both the
// original and the restored state through identical further
// observations, and requires bit-identical outputs from every scoring
// path.
func TestSnapshotRoundTrip(t *testing.T) {
	// "sm" is the backend every snapshot records.
	t.Run("sm", func(t *testing.T) {
		const dim = 12
		rs := NewRidgeState(dim, 0.5)
		feed(t, rs, dim, 40, 11)

		raw, err := json.Marshal(rs.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var snap RidgeSnapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreRidgeState(&snap)
		if err != nil {
			t.Fatal(err)
		}
		if restored.Updates() != rs.Updates() {
			t.Fatalf("updates %d, want %d", restored.Updates(), rs.Updates())
		}

		// Continue both through the same further history; every subsequent
		// output must match bit for bit.
		feed(t, rs, dim, 30, 23)
		feed(t, restored, dim, 30, 23)
		want := fingerprint(rs, dim, 5)
		got := fingerprint(restored, dim, 5)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("fingerprint %d: %x != %x", i, got[i], want[i])
			}
		}
	})
}

// TestSnapshotRebaseSchedule pins that the rebase position survives the
// round trip: a restored state must rebase on exactly the same future
// update as the original.
func TestSnapshotRebaseSchedule(t *testing.T) {
	rs := NewRidgeState(4, 1)
	feed(t, rs, 4, 17, 3)

	restored, err := RestoreRidgeState(rs.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if restored.sinceRebase != rs.sinceRebase {
		t.Fatalf("rebase position %d, want %d", restored.sinceRebase, rs.sinceRebase)
	}
	x := SparseFromDense(Vector{1, 0.5, 0, -1})
	for i := 0; i < rebaseEvery; i++ {
		rs.ObserveSparse(x, 1)
		restored.ObserveSparse(x, 1)
		if restored.sinceRebase != rs.sinceRebase {
			t.Fatalf("update %d: restored sinceRebase %d, want %d", i, restored.sinceRebase, rs.sinceRebase)
		}
	}
}

// TestSnapshotLegacyDriftKey pins that a snapshot written while the
// ridge still kept a drift score and recorded its backend restores: the
// "Drift" and "Backend" keys are ignored and the restored state is the
// one the snapshot was taken from.
func TestSnapshotLegacyDriftKey(t *testing.T) {
	rs := NewRidgeState(4, 1)
	feed(t, rs, 4, 17, 3)
	raw, err := json.Marshal(rs.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	fields["Drift"] = 47.5
	fields["Backend"] = "sm"
	legacy, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	var snap RidgeSnapshot
	if err := json.Unmarshal(legacy, &snap); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreRidgeState(&snap)
	if err != nil {
		t.Fatalf("legacy snapshot refused: %v", err)
	}
	if got, want := restored.Snapshot(), rs.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored state differs:\n%+v\nwant\n%+v", got, want)
	}
}

// TestSnapshotErrors pins the structural refusal paths.
func TestSnapshotErrors(t *testing.T) {
	if _, err := RestoreRidgeState(nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	if _, err := RestoreRidgeState(&RidgeSnapshot{Dim: 0, Lambda: 1}); err == nil {
		t.Fatal("zero dim accepted")
	}
	bad := NewRidgeState(3, 1).Snapshot()
	bad.VInv = bad.VInv[:4]
	if _, err := RestoreRidgeState(bad); err == nil {
		t.Fatal("truncated payload accepted")
	}
	// A dimension the payload does not back fails on the payload length,
	// before anything sized Dim² is allocated.
	huge := NewRidgeState(3, 1).Snapshot()
	huge.Dim = 1 << 30
	if _, err := RestoreRidgeState(huge); err == nil {
		t.Fatal("dimension larger than the payload accepted")
	}
}

// TestRestoreRidgeStateRejects is the snapshot trust boundary: a
// snapshot holding a NaN or ±Inf fails with *NonFiniteError naming the
// field, instead of restoring into a state whose theta is NaN.
func TestRestoreRidgeStateRejects(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	withFloats := func(enc string, at int, v float64) string {
		vals, err := floatenc.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		vals[at] = v
		return floatenc.Encode(vals)
	}
	cases := []struct {
		name   string
		mutate func(*RidgeSnapshot)
		field  string // NonFiniteError.Field
	}{
		{"lambda NaN", func(s *RidgeSnapshot) { s.Lambda = nan }, "Lambda"},
		{"lambda +Inf", func(s *RidgeSnapshot) { s.Lambda = inf }, "Lambda"},
		{"lambda -Inf", func(s *RidgeSnapshot) { s.Lambda = -inf }, "Lambda"},
		{"B NaN", func(s *RidgeSnapshot) {
			s.B = floatenc.Encode([]float64{nan, nan, nan})
		}, "B"},
		{"V +Inf", func(s *RidgeSnapshot) { s.V = withFloats(s.V, 4, inf) }, "V"},
		{"VInv -Inf", func(s *RidgeSnapshot) { s.VInv = withFloats(s.VInv, 0, -inf) }, "VInv"},
		{"VInv NaN", func(s *RidgeSnapshot) { s.VInv = withFloats(s.VInv, 8, nan) }, "VInv"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rs := NewRidgeState(3, 1)
			rs.ObserveSparse(SparseFromDense(Vector{1, 2, 0}), 3)
			snap := rs.Snapshot()
			tc.mutate(snap)
			got, err := RestoreRidgeState(snap)
			if err == nil {
				t.Fatalf("restored a bad snapshot; theta %v", got.Theta())
			}
			var ne *NonFiniteError
			if !errors.As(err, &ne) || ne.Field != tc.field {
				t.Fatalf("err = %v (%T), want NonFiniteError for %s", err, err, tc.field)
			}
		})
	}
}

// FuzzRestoreRidgeState feeds arbitrary JSON through the ridge snapshot
// decoder. It must never panic; a refusal is a *NonFiniteError only for
// a float field, or a plain error; and an accepted state must snapshot
// and restore to the same snapshot. The seed corpus is committed under
// testdata/fuzz.
func FuzzRestoreRidgeState(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var snap RidgeSnapshot
		if json.Unmarshal(data, &snap) != nil {
			return
		}
		rs, err := RestoreRidgeState(&snap)
		if err != nil {
			var ne *NonFiniteError
			if errors.As(err, &ne) {
				switch ne.Field {
				case "Lambda", "B", "V", "VInv":
				default:
					t.Fatalf("non-finite refusal names field %q", ne.Field)
				}
			}
			return
		}
		again := rs.Snapshot()
		restored, err := RestoreRidgeState(again)
		if err != nil {
			t.Fatalf("snapshot of an accepted state refused: %v", err)
		}
		if got := restored.Snapshot(); !reflect.DeepEqual(got, again) {
			t.Fatalf("snapshot does not survive a restore:\n%+v\nvs\n%+v", got, again)
		}
	})
}
