package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"dbabandits/internal/env"
	"dbabandits/internal/index"
	"dbabandits/internal/policy"
	"dbabandits/internal/query"
)

// CheckpointVersion is the on-disk checkpoint format version this build
// writes and reads. Any other version, including the single JSON object
// of version 1, is refused, not guessed at.
const CheckpointVersion = 2

// Checkpoint is the versioned image of a serving session at a window
// boundary: everything needed to rebuild the environment (deterministic
// from its scalars), the policy's serialised state, the materialised
// and last-known-safe configurations, the guardrail counters, and the
// last served window's statements (stored verbatim — an externally fed
// stream cannot be replayed from a seed). A session restored from a
// checkpoint recommends byte-identically to one that was never
// interrupted.
//
// On disk (version 2) a checkpoint is three parts: one compact JSON
// header line holding every field but PolicyState plus the state's
// byte length, the PolicyState bytes verbatim and a newline, and a
// fixed-width trailer line holding the byte length of, and a CRC-32C
// over, everything before it.
type Checkpoint struct {
	Version int

	// Options rebuild the environment (data generation is deterministic
	// in them, so the checkpoint does not carry the database), the
	// policy and the guardrail.
	Options

	// Serving position.
	Window     int
	LastWindow []*query.Query `json:",omitempty"`
	Config     []index.Def    `json:",omitempty"`

	// Guardrail state.
	SafeConfig  []index.Def `json:",omitempty"`
	Streak      int         `json:",omitempty"`
	Cooldown    int         `json:",omitempty"`
	Quarantines int         `json:",omitempty"`

	// PolicyState is the policy's Snapshotter payload, opaque here. A
	// version 2 file stores it after the header line, not inside it.
	PolicyState json.RawMessage `json:",omitempty"`
}

// CheckpointErrorKind classifies why a checkpoint was refused.
type CheckpointErrorKind string

const (
	// KindTruncated: the file ends before its recorded length, as after
	// a crash mid-write or a partial copy. An empty file is truncated.
	KindTruncated CheckpointErrorKind = "truncated"
	// KindChecksum: the bytes differ from the ones the trailer sealed,
	// or the trailer itself is damaged.
	KindChecksum CheckpointErrorKind = "checksum"
	// KindVersion: the format version is not one this build reads.
	KindVersion CheckpointErrorKind = "version"
	// KindMalformed: the checksum holds (or the format has none) but
	// the content does not parse as a checkpoint.
	KindMalformed CheckpointErrorKind = "malformed"
)

// CheckpointError is the error LoadCheckpoint, RestoreFile and Restore
// return for a checkpoint they refuse to decode. No session is ever
// half-restored from such a file.
type CheckpointError struct {
	Path   string // the file, or "" for an in-memory checkpoint
	Kind   CheckpointErrorKind
	Detail string
}

func (e *CheckpointError) Error() string {
	msg := "serve: checkpoint"
	if e.Path != "" {
		msg += " " + e.Path
	}
	return msg + ": " + string(e.Kind) + ": " + e.Detail
}

func ckptErr(kind CheckpointErrorKind, format string, args ...any) *CheckpointError {
	return &CheckpointError{Kind: kind, Detail: fmt.Sprintf(format, args...)}
}

// checkpointHeader is a version 2 file's first line: the checkpoint
// without its PolicyState, which follows the line, and the state's
// length in bytes.
type checkpointHeader struct {
	*Checkpoint
	StateLen int
}

// The trailer is one fixed-width line, so a reader finds it at a known
// offset from the end of the file: the prefix, 12 decimal digits of the
// sealed length, the CRC label, 8 hex digits of the CRC-32C, a newline.
const (
	trailerPrefix = "#checkpoint-v2 len="
	trailerCRC    = " crc32c="
	trailerFormat = trailerPrefix + "%012d" + trailerCRC + "%08x\n"
	trailerCRCAt  = len(trailerPrefix) + 12 + len(trailerCRC)
	trailerSize   = trailerCRCAt + 8 + 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeCheckpoint writes ck's version 2 image to b: the header line,
// the policy state verbatim, and the trailer sealing both.
func encodeCheckpoint(b *bytes.Buffer, ck *Checkpoint) error {
	hdr := *ck
	hdr.PolicyState = nil
	// Encode terminates the compact header with the newline the format
	// wants; json.Marshal never emits a raw newline inside a value.
	if err := json.NewEncoder(b).Encode(checkpointHeader{&hdr, len(ck.PolicyState)}); err != nil {
		return err
	}
	b.Write(ck.PolicyState)
	b.WriteByte('\n')
	fmt.Fprintf(b, trailerFormat, b.Len(), crc32.Checksum(b.Bytes(), castagnoli))
	return nil
}

// parseTrailer splits data into the sealed body and a well-formed
// trailer's recorded length and CRC; ok is false when data does not end
// in one.
func parseTrailer(data []byte) (body []byte, n int, sum uint32, ok bool) {
	if len(data) < trailerSize {
		return nil, 0, 0, false
	}
	body, t := data[:len(data)-trailerSize], data[len(data)-trailerSize:]
	lenEnd := trailerCRCAt - len(trailerCRC)
	if string(t[:len(trailerPrefix)]) != trailerPrefix || string(t[lenEnd:trailerCRCAt]) != trailerCRC || t[trailerSize-1] != '\n' {
		return nil, 0, 0, false
	}
	ln, err1 := strconv.ParseUint(string(t[len(trailerPrefix):lenEnd]), 10, 64)
	cs, err2 := strconv.ParseUint(string(t[trailerCRCAt:trailerSize-1]), 16, 32)
	if err1 != nil || err2 != nil {
		return nil, 0, 0, false
	}
	return body, int(ln), uint32(cs), true
}

// decodeCheckpoint decodes a version 2 image. Every refusal is a
// *CheckpointError.
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	if body, n, sum, ok := parseTrailer(data); ok {
		if n != len(body) {
			return nil, ckptErr(KindChecksum, "trailer seals %d bytes, file holds %d", n, len(body))
		}
		if got := crc32.Checksum(body, castagnoli); got != sum {
			return nil, ckptErr(KindChecksum, "crc32c %08x, trailer says %08x", got, sum)
		}
		return decodeV2Body(body)
	}
	// No intact trailer: a version 2 image that was cut short or whose
	// trailer is damaged, or an image of another version. Its first
	// JSON value says which: a version 2 header line, or a version 1
	// file's whole object.
	var h struct{ Version, StateLen int }
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&h); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ckptErr(KindTruncated, "file ends inside its first JSON value")
		}
		return nil, ckptErr(KindMalformed, "header: %v", err)
	}
	if h.Version != CheckpointVersion {
		return nil, versionErr(h.Version)
	}
	line, _, _ := bytes.Cut(data, []byte{'\n'})
	if want := len(line) + 1 + h.StateLen + 1 + trailerSize; len(data) < want {
		return nil, ckptErr(KindTruncated, "%d bytes, header implies %d", len(data), want)
	}
	return nil, ckptErr(KindChecksum, "trailer missing or damaged")
}

func versionErr(v int) *CheckpointError {
	return ckptErr(KindVersion, "version %d, this build reads version %d", v, CheckpointVersion)
}

// decodeV2Body decodes the checksummed part of a version 2 image. The
// returned PolicyState aliases body.
func decodeV2Body(body []byte) (*Checkpoint, error) {
	line, rest, ok := bytes.Cut(body, []byte{'\n'})
	if !ok {
		return nil, ckptErr(KindMalformed, "no header line")
	}
	h := checkpointHeader{Checkpoint: new(Checkpoint)}
	if err := json.Unmarshal(line, &h); err != nil {
		return nil, ckptErr(KindMalformed, "header: %v", err)
	}
	if h.Version != CheckpointVersion {
		return nil, versionErr(h.Version)
	}
	if h.StateLen < 0 || h.StateLen+1 != len(rest) || rest[h.StateLen] != '\n' {
		return nil, ckptErr(KindMalformed, "policy state is %d bytes, header says %d", len(rest)-1, h.StateLen)
	}
	ck := h.Checkpoint
	ck.PolicyState = nil
	if h.StateLen > 0 {
		ck.PolicyState = json.RawMessage(rest[:h.StateLen:h.StateLen])
	}
	if err := validate(ck); err != nil {
		return nil, err
	}
	return ck, nil
}

func validate(ck *Checkpoint) error {
	if ck.Policy == "" {
		return ckptErr(KindMalformed, "missing policy name")
	}
	return nil
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
		Version:     CheckpointVersion,
		Options:     s.opts,
		Window:      s.window,
		LastWindow:  s.round.Last,
		Config:      s.round.Config.Defs(),
		SafeConfig:  s.guard.safe.Defs(),
		Streak:      s.guard.streak,
		Cooldown:    s.guard.cooldown,
		Quarantines: s.guard.quarantines,
		PolicyState: state,
	}, nil
}

// WriteCheckpoint captures the session and writes its version 2 image
// to path durably and atomically: the image is built in a buffer the
// session reuses, written to a temporary file that is fsync'd and
// renamed into place, and the directory is fsync'd after the rename. A
// crash mid-write never leaves a torn or empty checkpoint where a good
// one stood.
func (s *Session) WriteCheckpoint(path string) error {
	ck, err := s.Checkpoint()
	if err != nil {
		return err
	}
	s.ckptBuf.Reset()
	if err := encodeCheckpoint(&s.ckptBuf, ck); err != nil {
		return err
	}
	return writeFileSync(path, s.ckptBuf.Bytes())
}

func writeFileSync(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadCheckpoint reads and validates a checkpoint file. A file it
// refuses yields a *CheckpointError.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ck, err := decodeCheckpoint(data)
	if err != nil {
		var ce *CheckpointError
		if errors.As(err, &ce) {
			ce.Path = path
		}
		return nil, err
	}
	return ck, nil
}

// Restore rebuilds a serving session from a checkpoint: the environment
// and a fresh policy are reconstructed from the recorded options, the
// policy's state is restored from the snapshot, and the serving
// position, configurations and guardrail counters are reinstated. The
// restored session's next Feed behaves exactly as the checkpointed
// session's would have. A checkpoint of another version fails with a
// *CheckpointError.
// A checkpoint whose configurations name an unknown table or column or
// hold an empty or repeated key (index.ValidDefs), or whose window or
// guardrail counters are negative, fails with a malformed
// *CheckpointError: the checksum catches corruption, not a hand-written
// file. The policy's Restore applies the same check to the
// configuration inside its own state.
func Restore(ck *Checkpoint) (*Session, error) {
	if ck.Version != CheckpointVersion {
		return nil, versionErr(ck.Version)
	}
	if ck.Window < 0 || ck.Streak < 0 || ck.Cooldown < 0 || ck.Quarantines < 0 {
		return nil, ckptErr(KindMalformed, "negative serving position or guardrail counter")
	}
	s, err := New(ck.Options)
	if err != nil {
		return nil, err
	}
	if err := s.load(ck); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// load reinstates ck's policy state, serving position, configurations
// and guardrail counters in s, a session built from ck's options.
func (s *Session) load(ck *Checkpoint) error {
	// Configurations are checked against the rebuilt schema before any
	// Feed plans with them: an index with an empty key or a column the
	// table lacks would otherwise crash the optimiser.
	for _, defs := range [][]index.Def{ck.Config, ck.SafeConfig} {
		if err := index.ValidDefs(s.env.Schema, defs); err != nil {
			return ckptErr(KindMalformed, "%v", err)
		}
	}
	snap, ok := s.pol.(policy.Snapshotter)
	if !ok {
		return fmt.Errorf("serve: policy %q does not support checkpointing", ck.Policy)
	}
	if err := snap.Restore(ck.PolicyState); err != nil {
		return fmt.Errorf("serve: restore policy %q: %w", ck.Policy, err)
	}
	s.window = ck.Window
	s.round = env.RoundState{Config: index.ConfigFromDefs(ck.Config), Last: ck.LastWindow}
	s.guard.safe = index.ConfigFromDefs(ck.SafeConfig)
	s.guard.streak = ck.Streak
	s.guard.cooldown = ck.Cooldown
	s.guard.quarantines = ck.Quarantines
	return nil
}

// RestoreFile loads a checkpoint from path and restores a session.
func RestoreFile(path string) (*Session, error) {
	ck, err := LoadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	s, err := Restore(ck)
	var ce *CheckpointError
	if errors.As(err, &ce) {
		ce.Path = path
	}
	return s, err
}
