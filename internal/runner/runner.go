// Package runner schedules independent units of work — experiment
// "cells" — across a bounded pool of worker goroutines.
//
// The design invariants, in order of importance:
//
//   - Determinism: results are returned in input order regardless of the
//     worker count or completion order, and the seed-derivation helpers
//     (CellSeed) map a cell's identity to its private RNG seed so a cell
//     computes byte-identical results whether it runs alone or beside
//     fifteen siblings.
//   - Isolation: a task that returns an error, or panics, yields a
//     Result with Err set; sibling tasks keep running and the sweep
//     completes.
//   - Bounded concurrency: at most Options.Parallel tasks run at once
//     (default runtime.GOMAXPROCS(0)).
//
// The harness layers its CellSpec/RunCells API on top of this package;
// anything that fans out independent deterministic work can use it
// directly.
package runner

import (
	"fmt"
	"runtime"
	"sync"
)

// Task is one independent unit of work producing a value of type T. A
// task must not share mutable state with its siblings: the pool runs
// tasks concurrently and guarantees nothing about relative order.
type Task[T any] func() (T, error)

// Result pairs one task's outcome with its position in the input slice.
type Result[T any] struct {
	Index int
	Value T
	Err   error
}

// Options tune one Run call.
type Options struct {
	// Parallel bounds the number of concurrently running tasks;
	// values <= 0 mean runtime.GOMAXPROCS(0).
	Parallel int
	// OnDone, when non-nil, is invoked once per completed task. Calls
	// are serialised (never concurrent) but follow completion order,
	// not input order. done is the number of tasks completed so far,
	// including this one.
	OnDone func(index, done, total int, err error)
}

// Run executes every task and returns one Result per task, in input
// order. Failed tasks (error or panic) are reported in their Result and
// do not abort siblings. Run itself never fails; each Result's Err
// reports its task's failure.
func Run[T any](tasks []Task[T], opts Options) []Result[T] {
	results := make([]Result[T], len(tasks))
	if len(tasks) == 0 {
		return results
	}
	workers := opts.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}

	var (
		mu   sync.Mutex
		done int
		wg   sync.WaitGroup
	)
	indices := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range indices {
				results[i] = runOne(i, tasks[i])
				mu.Lock()
				done++
				if opts.OnDone != nil {
					opts.OnDone(i, done, len(tasks), results[i].Err)
				}
				mu.Unlock()
			}
		}()
	}
	for i := range tasks {
		indices <- i
	}
	close(indices)
	wg.Wait()
	return results
}

// runOne executes a single task, converting a panic into an error so
// one bad cell cannot take down the whole sweep.
func runOne[T any](i int, t Task[T]) (res Result[T]) {
	res.Index = i
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("runner: task %d panicked: %v", i, r)
		}
	}()
	res.Value, res.Err = t()
	return res
}
