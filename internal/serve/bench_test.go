package serve

import (
	"strings"
	"testing"

	"dbabandits/internal/query"
)

// BenchmarkServeWindowTPCDS measures one Session.Feed of a window of 20
// TPC-DS template ids on a warmed default session, with no checkpoint:
// recommend, create, plan, execute and observe, plus the guardrail.
// Every iteration feeds a fresh window, instantiated before the timer
// starts, as a serving stream's would be.
func BenchmarkServeWindowTPCDS(b *testing.B) {
	s := tpcdsSession(b)
	defer s.Close()
	st := NewStream(strings.NewReader(tpcdsStreamText(b, 2, b.N)), s)
	wins := make([][]*query.Query, b.N)
	for i := range wins {
		win, err := st.Next()
		if err != nil {
			b.Fatal(err)
		}
		wins[i] = win
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, win := range wins {
		if _, err := s.Feed(win); err != nil {
			b.Fatal(err)
		}
	}
}
