package policy

import (
	"testing"

	"dbabandits/internal/engine"
	"dbabandits/internal/query"
)

func TestSeedStrategiesRegistered(t *testing.T) {
	registered := map[string]bool{}
	for _, name := range Names() {
		registered[name] = true
	}
	for _, name := range []string{"noindex", "pdtool", "mab", "ddqn", "ddqn-sc", "advisor"} {
		if !registered[name] {
			t.Errorf("%q not registered", name)
		}
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not strictly sorted: %v", names)
		}
	}
	if len(names) < 6 {
		t.Fatalf("expected at least the six shipped policies, got %v", names)
	}
}

func TestNewUnknownPolicy(t *testing.T) {
	if _, err := New("alien", nil, Params{}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

type stubPolicy struct{}

func (stubPolicy) Name() string                                    { return "stub" }
func (stubPolicy) Recommend(int, []*query.Query) Recommendation    { return Recommendation{} }
func (stubPolicy) Observe([]*engine.ExecStats, map[string]float64) {}
func (stubPolicy) Close()                                          {}

func TestRegisterDuplicatePanics(t *testing.T) {
	Register("stub-once", func(Env, Params) (Policy, error) { return stubPolicy{}, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register("stub-once", func(Env, Params) (Policy, error) { return stubPolicy{}, nil })
}

func TestRegisterRejectsEmptyAndNil(t *testing.T) {
	for _, c := range []struct {
		name string
		f    Factory
	}{{"", func(Env, Params) (Policy, error) { return stubPolicy{}, nil }}, {"nil-factory", nil}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q, %v) did not panic", c.name, c.f == nil)
				}
			}()
			Register(c.name, c.f)
		}()
	}
}
