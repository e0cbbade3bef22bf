package runner

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunOrder checks that results come back in input order even when
// tasks finish in scrambled order.
func TestRunOrder(t *testing.T) {
	const n = 32
	tasks := make([]Task[int], n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = func() (int, error) {
			// Later tasks finish first.
			time.Sleep(time.Duration(n-i) * time.Millisecond / 4)
			return i * i, nil
		}
	}
	results := Run(tasks, Options{Parallel: 8})
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, r := range results {
		if r.Index != i || r.Value != i*i || r.Err != nil {
			t.Errorf("result %d = {Index:%d Value:%d Err:%v}, want {%d %d <nil>}",
				i, r.Index, r.Value, r.Err, i, i*i)
		}
	}
}

// TestRunBoundedConcurrency checks that no more than Parallel tasks run
// at once.
func TestRunBoundedConcurrency(t *testing.T) {
	const limit = 3
	var inFlight, peak atomic.Int64
	tasks := make([]Task[struct{}], 24)
	for i := range tasks {
		tasks[i] = func() (struct{}, error) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			inFlight.Add(-1)
			return struct{}{}, nil
		}
	}
	Run(tasks, Options{Parallel: limit})
	if got := peak.Load(); got > limit {
		t.Errorf("peak concurrency %d exceeds limit %d", got, limit)
	}
}

// TestRunErrorIsolation checks that failing and panicking tasks are
// reported in place without aborting their siblings.
func TestRunErrorIsolation(t *testing.T) {
	boom := errors.New("boom")
	tasks := []Task[string]{
		func() (string, error) { return "a", nil },
		func() (string, error) { return "", boom },
		func() (string, error) { panic("kaboom") },
		func() (string, error) { return "d", nil },
	}
	results := Run(tasks, Options{Parallel: 4})
	if results[0].Value != "a" || results[0].Err != nil {
		t.Errorf("task 0 = %+v, want success", results[0])
	}
	if !errors.Is(results[1].Err, boom) {
		t.Errorf("task 1 err = %v, want %v", results[1].Err, boom)
	}
	if results[2].Err == nil || !strings.Contains(results[2].Err.Error(), "kaboom") {
		t.Errorf("task 2 err = %v, want panic converted to error", results[2].Err)
	}
	if results[3].Value != "d" || results[3].Err != nil {
		t.Errorf("task 3 = %+v, want success", results[3])
	}

}

// TestRunOnDone checks the completion callback: serialised, monotonic
// done counter, one call per task.
func TestRunOnDone(t *testing.T) {
	const n = 16
	tasks := make([]Task[int], n)
	for i := range tasks {
		i := i
		tasks[i] = func() (int, error) { return i, nil }
	}
	seen := make(map[int]bool)
	lastDone := 0
	results := Run(tasks, Options{
		Parallel: 4,
		OnDone: func(index, done, total int, err error) {
			if total != n {
				t.Errorf("total = %d, want %d", total, n)
			}
			if done != lastDone+1 {
				t.Errorf("done = %d after %d, want monotonic +1", done, lastDone)
			}
			lastDone = done
			if seen[index] {
				t.Errorf("index %d reported twice", index)
			}
			seen[index] = true
		},
	})
	if len(seen) != n {
		t.Errorf("OnDone saw %d tasks, want %d", len(seen), n)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("task %d err = %v, want nil", r.Index, r.Err)
		}
	}
}

// TestRunDefaults exercises the edge cases: empty input, zero/negative
// parallelism, more workers than tasks.
func TestRunDefaults(t *testing.T) {
	if got := Run[int](nil, Options{}); len(got) != 0 {
		t.Errorf("Run(nil) = %v, want empty", got)
	}
	tasks := []Task[int]{func() (int, error) { return 7, nil }}
	for _, par := range []int{-1, 0, 1, 100} {
		results := Run(tasks, Options{Parallel: par})
		if len(results) != 1 || results[0].Value != 7 || results[0].Err != nil {
			t.Errorf("Parallel=%d: results = %+v, want single 7", par, results)
		}
	}
}

// TestProgress checks the line format of the Progress reporter.
func TestProgress(t *testing.T) {
	var b strings.Builder
	cb := Progress(&b, []string{"alpha", "beta"})
	cb(0, 1, 12, nil)
	cb(1, 2, 12, errors.New("bad"))
	cb(5, 3, 12, nil) // past the label slice
	want := "[ 1/12] alpha\n[ 2/12] beta: ERROR: bad\n[ 3/12] #5\n"
	if b.String() != want {
		t.Errorf("Progress output:\n%q\nwant:\n%q", b.String(), want)
	}
}

// TestRunDeterministicValues checks the headline guarantee end to end:
// seeded tasks produce identical result slices at any worker count.
func TestRunDeterministicValues(t *testing.T) {
	build := func() []Task[int64] {
		tasks := make([]Task[int64], 20)
		for i := range tasks {
			i := i
			tasks[i] = func() (int64, error) {
				return CellSeed(42, fmt.Sprintf("cell-%d", i)), nil
			}
		}
		return tasks
	}
	serial := Run(build(), Options{Parallel: 1})
	for _, par := range []int{2, 4, 8} {
		got := Run(build(), Options{Parallel: par})
		for i := range serial {
			if got[i].Value != serial[i].Value {
				t.Errorf("Parallel=%d: result %d = %d, want %d",
					par, i, got[i].Value, serial[i].Value)
			}
		}
	}
}
