package fleet

import (
	"testing"

	"dbabandits/internal/env"
)

// BenchmarkFleetRound measures one full fleet round trip at a small
// but heterogeneous scale — four incumbents across mixed benchmarks
// and regimes plus one admitted tenant with its warm start and
// cold-start control — fanned across the worker pool. This is the
// fleet-mode serving cost per wall-clock unit: environment builds,
// noindex baselines, tuned spans, the donor snapshot/restore round
// trip and the transfer projection are all on the measured path.
func BenchmarkFleetRound(b *testing.B) {
	tenants := []TenantSpec{
		{ID: "t0", Benchmark: "ssb", Regime: env.Static, Rounds: 2, MaxStoredRows: 400},
		{ID: "t1", Benchmark: "tpch", Regime: env.Shifting, Rounds: 2, MaxStoredRows: 400},
		{ID: "t2", Benchmark: "tpch-skew", Regime: env.Random, Rounds: 2, MaxStoredRows: 400},
		{ID: "t3", Benchmark: "imdb", Regime: env.HTAP, Rounds: 2, MaxStoredRows: 400},
		{ID: "t4", Benchmark: "ssb", Regime: env.Static, Rounds: 2, MaxStoredRows: 400, Admitted: true},
	}
	opts := Options{BaseSeed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(tenants, opts)
		if err != nil {
			b.Fatal(err)
		}
		if errs := res.Errs(); len(errs) != 0 {
			b.Fatal(errs)
		}
	}
}
