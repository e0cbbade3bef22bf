package serve

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"

	"dbabandits/internal/query"
	"dbabandits/internal/storage"
	"dbabandits/internal/workload"
)

// Stream reads the serving line protocol: one line per window, each a
// whitespace-separated list of template ids from the session's
// benchmark ("1 2 2 5" — repeat an id for multiple instances). Blank
// lines and lines starting with '#' are skipped. Ids are instantiated
// into concrete queries deterministically per (seed, window, position),
// so replaying a stream — or skipping its consumed prefix after a
// restore — reproduces the exact statements the original run served.
type Stream struct {
	sc        *bufio.Scanner
	templates map[int]workload.TemplateSpec
	bench     string
	db        *storage.Database
	seed      int64
	window    int
}

// maxLineBytes bounds one line of the stream, its newline included.
const maxLineBytes = 1 << 20

// NewStream wraps a line-protocol reader for the given session.
func NewStream(r io.Reader, s *Session) *Stream {
	bench := s.env.Bench
	templates := make(map[int]workload.TemplateSpec, len(bench.Templates))
	for _, ts := range bench.Templates {
		templates[ts.ID] = ts
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	return &Stream{
		sc:        sc,
		templates: templates,
		bench:     bench.Name,
		db:        s.env.DB,
		seed:      s.opts.Seed,
		window:    0,
	}
}

// Skip consumes n windows without instantiating them — how a restored
// session fast-forwards past the part of the stream the checkpointed
// run already served. It errors if the stream ends early. Every error
// names the window it stopped at; Window counts the windows consumed
// before it.
func (st *Stream) Skip(n int) error {
	// The skip target is absolute: n windows past wherever the stream
	// already is, not window n (a restored stream may have consumed a
	// prefix before skipping).
	target := st.window + n
	for i := 0; i < n; i++ {
		if _, err := st.nextLine(); err != nil {
			if err == io.EOF {
				return fmt.Errorf("serve: stream ended at window %d while skipping to %d", st.window, target)
			}
			return err
		}
		st.window++
	}
	return nil
}

// Next reads and instantiates the next window. It returns io.EOF when
// the stream is exhausted. Any other error names the window it failed
// on: a window with a bad or unknown template id counts as consumed, a
// window that could not be read (a line over 1 MiB, a failed reader)
// does not.
func (st *Stream) Next() ([]*query.Query, error) {
	line, err := st.nextLine()
	if err != nil {
		return nil, err
	}
	st.window++
	fields := strings.Fields(line)
	out := make([]*query.Query, 0, len(fields))
	for pos, f := range fields {
		id, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("serve: window %d: bad template id %q", st.window, f)
		}
		ts, ok := st.templates[id]
		if !ok {
			return nil, fmt.Errorf("serve: window %d: benchmark %s has no template %d", st.window, st.bench, id)
		}
		// One rng per (seed, window, position): instantiation does not
		// depend on how earlier ids in the stream consumed randomness,
		// so any consumed prefix can be skipped without replaying it.
		rng := rand.New(rand.NewSource(st.seed + int64(st.window)*1_000_003 + int64(pos)*7919))
		out = append(out, ts.Instantiate(rng, st.db, st.bench))
	}
	return out, nil
}

// Window returns the number of windows consumed (read or skipped).
func (st *Stream) Window() int { return st.window }

func (st *Stream) nextLine() (string, error) {
	for st.sc.Scan() {
		line := strings.TrimSpace(st.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		return line, nil
	}
	if err := st.sc.Err(); err != nil {
		return "", fmt.Errorf("serve: window %d: %w", st.window+1, err)
	}
	return "", io.EOF
}
