package serve

import (
	"strings"
	"testing"

	"dbabandits/internal/query"
)

// serveBenchWindows is the span of windows one BenchmarkServeWindowTPCDS
// op feeds.
const serveBenchWindows = 10

// BenchmarkServeWindowTPCDS measures Session.Feed of a span of
// serveBenchWindows windows, each 20 TPC-DS template ids, on a warmed
// default session with no checkpoint: recommend, create, plan, execute
// and observe, plus the guardrail. Every op starts from the same
// warmed checkpoint (reinstated with the timer stopped) and feeds the
// next span of one seeded stream, windows the session has not served
// yet, as serving traffic never repeats a window: the caches that
// outlive the reinstated checkpoint hit only where they would on a live
// stream.
func BenchmarkServeWindowTPCDS(b *testing.B) {
	s := tpcdsSession(b)
	defer s.Close()
	ck, err := s.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	st := NewStream(strings.NewReader(tpcdsStreamText(b, 2, (b.N+1)*serveBenchWindows)), s)
	nextSpan := func() [][]*query.Query {
		wins := make([][]*query.Query, serveBenchWindows)
		for i := range wins {
			if wins[i], err = st.Next(); err != nil {
				b.Fatal(err)
			}
		}
		return wins
	}
	load := func() {
		if err := s.load(ck); err != nil {
			b.Fatal(err)
		}
	}
	feed := func(wins [][]*query.Query) []*WindowReport {
		reps := make([]*WindowReport, len(wins))
		for i, win := range wins {
			if reps[i], err = s.Feed(win); err != nil {
				b.Fatal(err)
			}
		}
		return reps
	}
	// The untimed first span is fed twice to check that a span replays
	// exactly; no timed op sees its windows.
	warm := nextSpan()
	load()
	first := reportJSON(b, feed(warm))
	load()
	if again := reportJSON(b, feed(warm)); again != first {
		b.Fatalf("a replayed span diverged:\n%s\nvs\n%s", again, first)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		load()
		wins := nextSpan()
		b.StartTimer()
		feed(wins)
	}
	b.ReportMetric(serveBenchWindows, "windows/op")
}
