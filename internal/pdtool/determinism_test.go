package pdtool_test

import (
	"math"
	"slices"
	"testing"

	"dbabandits/internal/env"
	"dbabandits/internal/pdtool"
)

// TestRecommendBitDeterministic pins that repeated Recommend calls on one
// training workload return bit-identical results. The estimated benefit
// and every merge decision are measured against the workload's base
// cost total; summing it in map iteration order let the low-order bits
// (and so a merge accepted at the 1% tolerance) vary from call to call.
func TestRecommendBitDeterministic(t *testing.T) {
	for _, bench := range []string{"tpcds", "tpch", "imdb"} {
		t.Run(bench, func(t *testing.T) {
			e, err := env.New(env.Options{Benchmark: bench, Regime: env.Static, MaxStoredRows: 1000, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			training := e.Seq.Round(1)
			a := pdtool.New(e.Schema, e.Opt, pdtool.Options{MemoryBudgetBytes: e.Budget})
			first := a.Recommend(training)
			for i := 1; i < 30; i++ {
				rec := a.Recommend(training)
				if math.Float64bits(rec.EstimatedBenefitSec) != math.Float64bits(first.EstimatedBenefitSec) {
					t.Fatalf("call %d: estimated benefit %x, first call %x",
						i, math.Float64bits(rec.EstimatedBenefitSec), math.Float64bits(first.EstimatedBenefitSec))
				}
				if rec.WhatIfCalls != first.WhatIfCalls || !slices.Equal(rec.Config.IDs(), first.Config.IDs()) {
					t.Fatalf("call %d: %d calls %v, first call %d calls %v",
						i, rec.WhatIfCalls, rec.Config.IDs(), first.WhatIfCalls, first.Config.IDs())
				}
			}
		})
	}
}
