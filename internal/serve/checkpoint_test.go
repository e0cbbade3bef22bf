package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"dbabandits/internal/index"
	"dbabandits/internal/policy"
	"dbabandits/internal/workload"
)

// freshImage serves the test stream's first three windows and returns
// the session's version 2 image, encoded as WriteCheckpoint writes it.
func freshImage(t testing.TB) []byte {
	t.Helper()
	s, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	feedAll(t, s, NewStream(strings.NewReader(testStream), s), 3)
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := encodeCheckpoint(&b, ck); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// imageParts returns the offsets where a version 2 image's state and
// trailer begin.
func imageParts(t *testing.T, img []byte) (stateAt, trailerAt int) {
	t.Helper()
	stateAt = bytes.IndexByte(img, '\n') + 1
	trailerAt = len(img) - trailerSize
	if stateAt <= 0 || stateAt >= trailerAt {
		t.Fatalf("image has no header line before its trailer")
	}
	return stateAt, trailerAt
}

// wantRefused asserts that data, written to a file, is refused by both
// LoadCheckpoint and RestoreFile with a *CheckpointError of kind want.
func wantRefused(t *testing.T, data []byte, want CheckpointErrorKind, what string) {
	t.Helper()
	ck, err := decodeCheckpoint(data)
	var ce *CheckpointError
	if ck != nil || !errors.As(err, &ce) || ce.Kind != want {
		t.Fatalf("%s: decode = %v, %v; want a %s *CheckpointError", what, ck != nil, err, want)
	}
	path := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := RestoreFile(path)
	if s != nil || !errors.As(err, &ce) || ce.Kind != want || ce.Path != path {
		t.Fatalf("%s: RestoreFile = %v, %v; want no session and a %s *CheckpointError naming the file", what, s != nil, err, want)
	}
}

// TestCheckpointCorruption truncates a fresh version 2 image inside each
// of its three parts and flips one byte in each, and checks every case
// is refused with the right kind of *CheckpointError and no session.
// It then sweeps truncation lengths — every one inside the header and
// the trailer, every 97th inside the state, where the decoder takes the
// same path for each — and every single-byte flip of the image through
// the decoder: each must be refused with the same kind.
func TestCheckpointCorruption(t *testing.T) {
	img := freshImage(t)
	stateAt, trailerAt := imageParts(t, img)
	parts := []struct {
		name string
		at   int
	}{
		{"header", stateAt / 2},
		{"state", (stateAt + trailerAt) / 2},
		{"trailer", trailerAt + trailerSize/2},
	}
	for _, p := range parts {
		wantRefused(t, img[:p.at], KindTruncated, "truncated inside the "+p.name)
		flipped := bytes.Clone(img)
		flipped[p.at] ^= 0x20
		wantRefused(t, flipped, KindChecksum, "byte flipped inside the "+p.name)
	}

	for n := 0; n < len(img); n++ {
		if n > stateAt && n < trailerAt && (n-stateAt)%97 != 0 {
			continue
		}
		var ce *CheckpointError
		if _, err := decodeCheckpoint(img[:n]); !errors.As(err, &ce) || ce.Kind != KindTruncated {
			t.Fatalf("image cut to %d of %d bytes: err = %v, want truncated", n, len(img), err)
		}
	}
	flipped := bytes.Clone(img)
	for i := range flipped {
		for _, mask := range []byte{0x01, 0xff} {
			flipped[i] ^= mask
			_, err := decodeCheckpoint(flipped)
			flipped[i] ^= mask
			var ce *CheckpointError
			if !errors.As(err, &ce) || ce.Kind != KindChecksum {
				t.Fatalf("byte %d of %d flipped by %#x: err = %v, want checksum", i, len(img), mask, err)
			}
		}
	}
}

// reseal appends to body a trailer sealing it.
func reseal(body []byte) []byte {
	return fmt.Appendf(bytes.Clone(body), trailerFormat, len(body), crc32.Checksum(body, castagnoli))
}

// TestRestoreRefusesCraftedCheckpoint checks that a checkpoint whose
// checksum holds but whose content does not fit the session is refused
// with a malformed *CheckpointError and no session, instead of crashing
// the first Feed: configurations are checked against the rebuilt
// schema, and the serving position and guardrail counters must not be
// negative.
func TestRestoreRefusesCraftedCheckpoint(t *testing.T) {
	img := freshImage(t)
	for _, c := range []struct {
		name string
		set  func(*Checkpoint)
	}{
		{"empty key", func(ck *Checkpoint) {
			ck.SafeConfig = append(ck.SafeConfig, index.Def{Table: "lineorder", Key: []string{}})
		}},
		{"unknown table", func(ck *Checkpoint) {
			ck.Config = append(ck.Config, index.Def{Table: "no_such_table", Key: []string{"lo_custkey"}})
		}},
		{"unknown column", func(ck *Checkpoint) {
			ck.Config = append(ck.Config, index.Def{Table: "lineorder", Key: []string{"no_such_column"}})
		}},
		{"unknown include column", func(ck *Checkpoint) {
			ck.SafeConfig = append(ck.SafeConfig, index.Def{Table: "lineorder", Key: []string{"lo_custkey"}, Include: []string{"no_such_column"}})
		}},
		{"repeated key column", func(ck *Checkpoint) {
			ck.SafeConfig = append(ck.SafeConfig, index.Def{Table: "lineorder", Key: []string{"lo_custkey", "lo_custkey"}})
		}},
		{"negative window", func(ck *Checkpoint) { ck.Window = -1 }},
		{"negative streak", func(ck *Checkpoint) { ck.Streak = -1 }},
		{"negative cooldown", func(ck *Checkpoint) { ck.Cooldown = -1 }},
		{"negative quarantines", func(ck *Checkpoint) { ck.Quarantines = -1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			ck, err := decodeCheckpoint(img)
			if err != nil {
				t.Fatal(err)
			}
			c.set(ck)
			var b bytes.Buffer
			if err := encodeCheckpoint(&b, ck); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "crafted.ckpt")
			if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := RestoreFile(path)
			var ce *CheckpointError
			if s != nil || !errors.As(err, &ce) || ce.Kind != KindMalformed || ce.Path != path {
				if s != nil {
					s.Close()
				}
				t.Fatalf("RestoreFile = %v, %v; want no session and a malformed *CheckpointError naming the file", s != nil, err)
			}
		})
	}
}

// TestRestoreRefusesCraftedPolicyState checks, for every registered
// policy, that an index with an empty key spliced into the
// configuration inside the policy's own state is refused at restore,
// instead of crashing the first Feed. noindex keeps no state, so it
// has nothing to refuse; its restored session must still serve.
func TestRestoreRefusesCraftedPolicyState(t *testing.T) {
	for _, name := range policy.Names() {
		t.Run(name, func(t *testing.T) {
			o := testOptions()
			o.Policy = name
			s, err := New(o)
			if err != nil {
				t.Fatal(err)
			}
			feedAll(t, s, NewStream(strings.NewReader(testStream), s), 3)
			ck, err := s.Checkpoint()
			s.Close()
			if err != nil {
				t.Fatal(err)
			}
			var state map[string]json.RawMessage
			if err := json.Unmarshal(ck.PolicyState, &state); err != nil {
				t.Fatal(err)
			}
			var cfg []index.Def
			if raw, ok := state["Config"]; ok {
				if err := json.Unmarshal(raw, &cfg); err != nil {
					t.Fatal(err)
				}
			}
			cfg = append(cfg, index.Def{Table: "lineorder", Key: []string{}})
			if state["Config"], err = json.Marshal(cfg); err != nil {
				t.Fatal(err)
			}
			if ck.PolicyState, err = json.Marshal(state); err != nil {
				t.Fatal(err)
			}

			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("crafted %s state panicked: %v", name, p)
				}
			}()
			r, err := Restore(ck)
			if name != "noindex" {
				if err == nil {
					r.Close()
					t.Fatalf("crafted %s state restored", name)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			feedAll(t, r, NewStream(strings.NewReader(testStream), r), 1)
		})
	}
}

// TestCheckpointV2Layout pins the on-disk layout: a compact header line
// without the policy state, the Snapshot bytes verbatim, and a trailer
// sealing both — and that a well-sealed image with a future version or
// a wrong state length is refused with the matching kind.
func TestCheckpointV2Layout(t *testing.T) {
	s, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	feedAll(t, s, NewStream(strings.NewReader(testStream), s), 3)
	path := filepath.Join(t.TempDir(), "session.ckpt")
	if err := s.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stateAt, trailerAt := imageParts(t, img)
	state, err := s.pol.(policy.Snapshotter).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := img[stateAt : trailerAt-1]; !bytes.Equal(got, state) {
		t.Fatalf("stored policy state differs from the Snapshot bytes (%d vs %d bytes)", len(got), len(state))
	}
	header := img[:stateAt-1]
	if !bytes.HasPrefix(header, []byte(`{"Version":2,`)) || bytes.Contains(header, []byte("PolicyState")) {
		t.Fatalf("header line %.80s... is not a compact version 2 header without the state", header)
	}
	if !bytes.Equal(reseal(img[:trailerAt]), img) {
		t.Fatalf("trailer %q does not seal the image's length and CRC-32C", img[trailerAt:])
	}

	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !sameCheckpoint(ck, want) {
		t.Fatal("loaded checkpoint differs from the session's")
	}

	future := bytes.Replace(img[:trailerAt], []byte(`{"Version":2,`), []byte(`{"Version":3,`), 1)
	wantRefused(t, reseal(future), KindVersion, "sealed version 3 image")
	short := bytes.Replace(img[:trailerAt], []byte(`"StateLen":`), []byte(`"StateLen":1`), 1)
	wantRefused(t, reseal(short), KindMalformed, "sealed image with a wrong state length")
	wantRefused(t, reseal([]byte("{\"Version\":2,\"StateLen\":2}\n{}\n")), KindMalformed, "sealed image without a policy")
}

// sameCheckpoint reports whether two checkpoints hold the same policy
// state bytes and the same other fields, compared through their JSON so
// nil and empty slices of the optional fields compare equal.
func sameCheckpoint(a, b *Checkpoint) bool {
	ha, hb := *a, *b
	ha.PolicyState, hb.PolicyState = nil, nil
	ja, errA := json.Marshal(&ha)
	jb, errB := json.Marshal(&hb)
	return errA == nil && errB == nil && bytes.Equal(ja, jb) && bytes.Equal(a.PolicyState, b.PolicyState)
}

// TestCheckpointV1Refused pins that a version 1 image, the committed
// checkpoint of an earlier build, is refused as a version this build
// does not read, and that a cut, future-version or otherwise bad image
// without a version 2 trailer is refused with the matching kind.
func TestCheckpointV1Refused(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "parent_default.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	wantRefused(t, v1, KindVersion, "version 1 image")
	wantRefused(t, append(bytes.Clone(v1), "{}"...), KindVersion, "version 1 image with trailing data")
	wantRefused(t, bytes.Replace(v1, []byte(`"Version": 1`), []byte(`"Version": 9`), 1), KindVersion, "version 9 image")
	wantRefused(t, v1[:len(v1)/2], KindTruncated, "version 1 image cut in half")
	wantRefused(t, nil, KindTruncated, "empty file")
	wantRefused(t, []byte("not a checkpoint\n"), KindMalformed, "text file")
}

// tpcdsSession returns a TPC-DS serving session, at the serve-tpcds
// workload's settings, after 20 windows of 20 seeded template ids.
func tpcdsSession(tb testing.TB) *Session {
	tb.Helper()
	s, err := New(Options{Benchmark: "tpcds", Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	st := NewStream(strings.NewReader(tpcdsStreamText(tb, 1, 20)), s)
	for w := 0; w < 20; w++ {
		win, err := st.Next()
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := s.Feed(win); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// tpcdsStreamText returns windows lines of the serving line protocol,
// each 20 TPC-DS template ids drawn from the seed.
func tpcdsStreamText(tb testing.TB, seed int64, windows int) string {
	tb.Helper()
	b, err := workload.ByName("tpcds")
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var text strings.Builder
	for w := 0; w < windows; w++ {
		for i := 0; i < 20; i++ {
			text.WriteString(strconv.Itoa(b.Templates[rng.Intn(len(b.Templates))].ID) + " ")
		}
		text.WriteByte('\n')
	}
	return text.String()
}

// allocsPerRun returns the mean heap objects and bytes f allocates per
// call, after one warm-up call, as testing.AllocsPerRun does for
// objects alone.
func allocsPerRun(runs int, f func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// The allocation budgets of writing and loading a checkpoint, beyond
// Session.Checkpoint (the policy's Snapshot and the configurations) and
// beyond decoding the header line's JSON respectively. The objects are
// the temporary file, the directory handle, the encoder and the file
// read; 17 and 5 at this writing. The byte budgets pin the buffer
// reuse: a write builds its image in the session's buffer, and a load
// holds one copy of the file and no second copy of the state.
const (
	writeAllocObjects = 20
	loadAllocObjects  = 10
)

// TestCheckpointAllocs pins the allocation cost of writing and loading
// a checkpoint of the TPC-DS benchmark session.
func TestCheckpointAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocations are not stable under the race detector")
	}
	s := tpcdsSession(t)
	defer s.Close()
	path := filepath.Join(t.TempDir(), "session.ckpt")
	ckObjs, ckBytes := allocsPerRun(5, func() {
		if _, err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	})
	writeObjs, writeBytes := allocsPerRun(5, func() {
		if err := s.WriteCheckpoint(path); err != nil {
			t.Fatal(err)
		}
	})
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	size := float64(len(img))
	if extra := writeObjs - ckObjs; extra > writeAllocObjects {
		t.Errorf("WriteCheckpoint allocates %.0f objects beyond Checkpoint's %.0f, budget %d", extra, ckObjs, writeAllocObjects)
	}
	if extra := writeBytes - ckBytes; extra > size/8 {
		t.Errorf("WriteCheckpoint allocates %.0f bytes beyond Checkpoint's, budget %.0f (1/8 of the %.0f-byte image)", extra, size/8, size)
	}

	header := img[:bytes.IndexByte(img, '\n')]
	hdrObjs, hdrBytes := allocsPerRun(5, func() {
		if err := json.Unmarshal(header, &checkpointHeader{Checkpoint: new(Checkpoint)}); err != nil {
			t.Fatal(err)
		}
	})
	loadObjs, loadBytes := allocsPerRun(5, func() {
		if _, err := LoadCheckpoint(path); err != nil {
			t.Fatal(err)
		}
	})
	if extra := loadObjs - hdrObjs; extra > loadAllocObjects {
		t.Errorf("LoadCheckpoint allocates %.0f objects beyond the header's %.0f, budget %d", extra, hdrObjs, loadAllocObjects)
	}
	if extra := loadBytes - hdrBytes; extra > 1.25*size {
		t.Errorf("LoadCheckpoint allocates %.0f bytes beyond the header's, budget %.0f (1.25 times the image)", extra, 1.25*size)
	}
}

// BenchmarkWriteCheckpoint measures Session.WriteCheckpoint — Snapshot,
// image build, write, fsync, rename, directory fsync — on the TPC-DS
// benchmark session.
func BenchmarkWriteCheckpoint(b *testing.B) {
	s := tpcdsSession(b)
	defer s.Close()
	path := filepath.Join(b.TempDir(), "session.ckpt")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.WriteCheckpoint(path); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if fi, err := os.Stat(path); err == nil {
		b.ReportMetric(float64(fi.Size())/1024, "kB/ckpt")
	}
}

// BenchmarkRestoreCheckpoint measures RestoreFile on the TPC-DS
// benchmark session's checkpoint: load and verify the file, rebuild the
// environment, restore the policy.
func BenchmarkRestoreCheckpoint(b *testing.B) {
	s := tpcdsSession(b)
	path := filepath.Join(b.TempDir(), "session.ckpt")
	err := s.WriteCheckpoint(path)
	s.Close()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := RestoreFile(path)
		if err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
}

// FuzzDecodeCheckpoint feeds arbitrary bytes to the checkpoint decoder.
// It must never panic, must refuse with a *CheckpointError, and anything
// it accepts must re-encode and decode to the same checkpoint.
func FuzzDecodeCheckpoint(f *testing.F) {
	v1, err := os.ReadFile(filepath.Join("testdata", "parent_default.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	f.Add(freshImage(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := decodeCheckpoint(data)
		if err != nil {
			var ce *CheckpointError
			if !errors.As(err, &ce) {
				t.Fatalf("untyped refusal: %v", err)
			}
			return
		}
		var b bytes.Buffer
		if err := encodeCheckpoint(&b, ck); err != nil {
			t.Fatalf("accepted checkpoint does not re-encode: %v", err)
		}
		again, err := decodeCheckpoint(b.Bytes())
		if err != nil {
			t.Fatalf("re-encoded checkpoint refused: %v", err)
		}
		if !sameCheckpoint(again, ck) {
			t.Fatalf("re-encoded checkpoint decodes differently:\n%+v\nvs\n%+v", again, ck)
		}
	})
}
