package serve

import (
	"strings"
	"testing"

	"dbabandits/internal/query"
)

// serveBenchWindows is the span of windows one BenchmarkServeWindowTPCDS
// op feeds.
const serveBenchWindows = 10

// BenchmarkServeWindowTPCDS measures Session.Feed of a fixed span of
// serveBenchWindows windows, each 20 TPC-DS template ids, on a warmed
// default session with no checkpoint: recommend, create, plan, execute
// and observe, plus the guardrail. Every op starts from the same
// warmed checkpoint (reinstated with the timer stopped) and feeds the
// same pre-instantiated windows, so every op does the same work and
// ns/op does not depend on how many ops the benchtime runs.
func BenchmarkServeWindowTPCDS(b *testing.B) {
	s := tpcdsSession(b)
	defer s.Close()
	ck, err := s.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	st := NewStream(strings.NewReader(tpcdsStreamText(b, 2, serveBenchWindows)), s)
	wins := make([][]*query.Query, serveBenchWindows)
	for i := range wins {
		if wins[i], err = st.Next(); err != nil {
			b.Fatal(err)
		}
	}
	load := func() {
		if err := s.load(ck); err != nil {
			b.Fatal(err)
		}
	}
	feed := func() []*WindowReport {
		reps := make([]*WindowReport, len(wins))
		for i, win := range wins {
			if reps[i], err = s.Feed(win); err != nil {
				b.Fatal(err)
			}
		}
		return reps
	}
	// Two untimed spans warm the caches and check that a span replays
	// exactly.
	load()
	first := reportJSON(b, feed())
	load()
	if again := reportJSON(b, feed()); again != first {
		b.Fatalf("a replayed span diverged:\n%s\nvs\n%s", again, first)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		load()
		b.StartTimer()
		feed()
	}
	b.ReportMetric(serveBenchWindows, "windows/op")
}
