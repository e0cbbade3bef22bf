package policy_test

import (
	"bytes"
	"testing"

	"dbabandits/internal/env"
	"dbabandits/internal/policy"
)

// fuzzEnv is the small TPC-DS environment FuzzPolicyRestore restores
// into: five rounds of the random regime over 100 stored rows a table.
// Round 5 is PDTool's first invocation there, and it trains on every
// window the policy keeps.
func fuzzEnv(tb testing.TB) *env.Environment {
	tb.Helper()
	e, err := env.New(env.Options{
		Benchmark:     "tpcds",
		Regime:        env.Random,
		ScaleFactor:   1,
		MaxStoredRows: 100,
		Rounds:        5,
		Seed:          1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// liveSnapshot runs the named policy over the environment's rounds and
// returns its snapshot, the real state a checkpoint would carry; ok is
// false for a policy that cannot snapshot.
func liveSnapshot(tb testing.TB, e *env.Environment, name string) (state []byte, ok bool) {
	tb.Helper()
	p, err := e.NewPolicy(env.TunerKind(name))
	if err != nil {
		tb.Fatal(err)
	}
	defer p.Close()
	snap, ok := p.(policy.Snapshotter)
	if !ok {
		return nil, false
	}
	if _, err := e.RunPolicySpan(p, env.Span{}); err != nil {
		tb.Fatal(err)
	}
	state, err = snap.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	return state, true
}

// FuzzPolicyRestore feeds arbitrary bytes to every registered policy's
// Restore, the trust boundary a serving checkpoint's policy state
// crosses. Restore must never panic; a state it accepts must snapshot
// to bytes that restore into a fresh policy and snapshot to the same
// bytes again, and the restored policy's next Recommend must not panic.
// That Recommend is round 5's, so PDTool retrains on its restored
// windows. The first byte of the input picks the policy (modulo the
// number of policies that snapshot).
func FuzzPolicyRestore(f *testing.F) {
	e := fuzzEnv(f)
	var names []string
	for _, name := range policy.Names() {
		if state, ok := liveSnapshot(f, e, name); ok {
			f.Add(append([]byte{byte(len(names))}, state...))
			names = append(names, name)
		}
	}
	last := e.WorkloadAt(4)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		name := names[int(data[0])%len(names)]
		restored := func(state []byte) (policy.Policy, error) {
			p, err := e.NewPolicy(env.TunerKind(name))
			if err != nil {
				t.Fatal(err)
			}
			return p, p.(policy.Snapshotter).Restore(state)
		}
		p, err := restored(data[1:])
		defer p.Close()
		if err != nil {
			return
		}
		once, err := p.(policy.Snapshotter).Snapshot()
		if err != nil {
			t.Fatalf("%s: snapshot of an accepted state: %v", name, err)
		}
		q, err := restored(once)
		defer q.Close()
		if err != nil {
			t.Fatalf("%s: snapshot of an accepted state refused: %v", name, err)
		}
		twice, err := q.(policy.Snapshotter).Snapshot()
		if err != nil {
			t.Fatalf("%s: snapshot of a restored snapshot: %v", name, err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("%s: snapshot does not survive a restore (%d bytes, then %d)", name, len(once), len(twice))
		}
		p.Recommend(5, last)
	})
}
