// Package harness is the parallel deterministic experiment-execution
// engine. The paper's evaluation — and this repository's reproduction of
// it — is dozens of mutually independent discrete-event simulations, each
// a pure function of its scenario (topology, seed, windows). Replaying
// them strictly serially leaves every core but one idle, the exact
// pathology the paper diagnoses in the kernel's receive path. The harness
// fans such jobs out over a bounded worker pool and hands the results
// back in submission order, so a matrix executed on eight workers is
// indistinguishable — output byte for output byte — from the same matrix
// executed serially.
//
// Determinism is the contract, and it rests on two rules the callers
// uphold and the pool enforces by shape:
//
//  1. Jobs share nothing mutable. Each job owns a value-copied scenario,
//     its own seeded RNGs (simulation and fault-injection PRNGs are
//     derived from the scenario seed, never from a global source) and a
//     private obs.Registry. The pool adds no shared state of its own.
//  2. Aggregation order is submission order, never completion order.
//     Map writes each job's result into its submission slot; iteration
//     over the returned slice replays the serial order exactly.
//
// A panic inside a job does not deadlock the pool: every worker drains,
// then the lowest-index panic is re-raised on the calling goroutine so
// failures are reported deterministically too.
package harness

import (
	"fmt"
	"runtime"
	"sync"
)

// DefaultWorkers is the pool width used when none is given: GOMAXPROCS,
// i.e. "as many simulations in flight as the hardware allows".
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Map runs fn(i, items[i]) for every item on a pool of at most workers
// goroutines and returns the results indexed like items (submission
// order). workers <= 0 selects DefaultWorkers(); workers == 1 — or a
// single item — runs every job inline on the calling goroutine, which is
// the serial reference path the parallel output is measured against.
// fn must be safe for concurrent invocation and must not share mutable
// state across items.
func Map[T, R any](workers int, items []T, fn func(int, T) R) []R {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > len(items) {
		workers = len(items)
	}
	out := make([]R, len(items))
	if workers <= 1 {
		for i, it := range items {
			out[i] = fn(i, it)
		}
		return out
	}
	idx := make(chan int)
	panics := make([]any, len(items))
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				func() {
					defer func() {
						if p := recover(); p != nil {
							panics[i] = p
						}
					}()
					out[i] = fn(i, items[i])
				}()
			}
		}()
	}
	for i := range items {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("harness: job %d panicked: %v", i, p))
		}
	}
	return out
}
