package env

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dbabandits/internal/optimizer"
	"dbabandits/internal/policy"
)

// TestUncachedOptimizerReproducesGoldens pins the optimiser's
// config-fingerprinted plan cache as a wall-clock optimisation only:
// every committed golden fixture — static, shifting and random for all
// their tuners, HTAP for every registered policy — must be reproduced
// byte for byte with the environment's optimiser swapped for the
// uncached full greedy search. A cache that changed a plan, a cost or a
// what-if call count would show up here as a byte diff.
func TestUncachedOptimizerReproducesGoldens(t *testing.T) {
	cases := []struct {
		regime Regime
		rounds int
		prefix string
		tuners []string
	}{
		{Static, 5, "", []string{"noindex", "pdtool", "mab", "ddqn", "ddqn-sc"}},
		{Shifting, 8, "shifting_", []string{"noindex", "pdtool", "mab"}},
		{Random, 9, "random_", []string{"noindex", "pdtool", "mab"}},
		{HTAP, 6, "htap_", htapGoldenPolicies},
	}
	for _, c := range cases {
		for _, name := range c.tuners {
			e, err := New(Options{
				Benchmark:     "ssb",
				Regime:        c.regime,
				ScaleFactor:   10,
				MaxStoredRows: 2000,
				Rounds:        c.rounds,
				Seed:          7,
			})
			if err != nil {
				t.Fatal(err)
			}
			e.Opts.DDQNSeed = 7
			e.Opts.RandomSeed = 7
			e.Opt = optimizer.NewUncached(e.Schema, e.CM)
			p, err := policy.New(name, e, e.policyParams())
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.RunPolicy(p)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.regime, name, err)
			}
			got, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			fixture := "golden_" + c.prefix + name + ".json"
			want, err := os.ReadFile(filepath.Join("testdata", fixture))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s/%s: uncached RunResult diverged from %s", c.regime, name, fixture)
			}
			if st := e.PlanCacheStats(); st != (optimizer.PlanCacheStats{}) {
				t.Errorf("%s/%s: uncached optimiser reported cache activity %+v", c.regime, name, st)
			}
		}
	}
}
