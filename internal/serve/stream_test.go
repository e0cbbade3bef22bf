package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// streamWindows counts the windows in data as the line protocol reads
// them, or returns ok=false when a line is too long to read.
func streamWindows(data []byte) (n int, ok bool) {
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line)+1 >= maxLineBytes {
			return 0, false
		}
		line = bytes.TrimSpace(line)
		if len(line) > 0 && line[0] != '#' {
			n++
		}
	}
	return n, true
}

// FuzzStream feeds arbitrary bytes to the serving stream parser: Skip
// past a prefix, then Next until EOF or an error. It must never panic;
// Window must count every window consumed, read or skipped; and every
// error must name the window it stopped at.
func FuzzStream(f *testing.F) {
	s, err := New(testOptions())
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	f.Add([]byte(testStream), uint8(2))
	f.Add([]byte("1 2\r\n\r\n# note\r\n3\r\n"), uint8(0))
	f.Add([]byte(strings.Repeat("1 ", maxLineBytes/2+1)+"\n2\n"), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, skip uint8) {
		total, countable := streamWindows(data)
		st := NewStream(bytes.NewReader(data), s)
		if err := st.Skip(int(skip)); err != nil {
			at := fmt.Sprintf("window %d", st.Window())
			if read := fmt.Sprintf("window %d:", st.Window()+1); !strings.Contains(err.Error(), at) && !strings.Contains(err.Error(), read) {
				t.Fatalf("Skip(%d) error %q names neither %s nor the window after it", skip, err, at)
			}
			if countable && st.Window() != min(total, int(skip)) {
				t.Fatalf("Skip(%d) failed after %d windows of %d", skip, st.Window(), total)
			}
			return
		}
		if st.Window() != int(skip) {
			t.Fatalf("Skip(%d) consumed %d windows", skip, st.Window())
		}
		for {
			before := st.Window()
			win, err := st.Next()
			if err == io.EOF {
				if st.Window() != before {
					t.Fatalf("EOF moved the window count from %d to %d", before, st.Window())
				}
				if countable && before != total {
					t.Fatalf("stream ended after %d windows, the data holds %d", before, total)
				}
				return
			}
			if err != nil {
				if errors.Is(err, io.EOF) {
					t.Fatalf("EOF wrapped as %q", err)
				}
				if want := fmt.Sprintf("window %d:", before+1); !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name %s", err, want)
				}
				if after := st.Window(); after != before && after != before+1 {
					t.Fatalf("a failed Next moved the window count from %d to %d", before, after)
				}
				return
			}
			if st.Window() != before+1 {
				t.Fatalf("Next moved the window count from %d to %d", before, st.Window())
			}
			if len(win) == 0 {
				t.Fatalf("window %d has no queries", st.Window())
			}
		}
	})
}
