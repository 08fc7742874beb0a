// Package runner executes independent simulation runs in parallel without
// changing their results.
//
// A discrete-event run is a pure function of its Config (including the
// seed): internal/rng derives every stream from Config.Seed, and the
// run-twice tests and the race detector keep goroutines and wall-clock time
// out of the simulation packages. That
// makes sweep points and repeat seeds embarrassingly parallel — the only
// thing parallelism could perturb is the *order* results are observed in,
// so Map collects results by index and callers consume them exactly as the
// serial loop would have. Output is byte-identical for any worker count.
//
// This package is the single sanctioned home for goroutines in the
// simulator above the run boundary; everything below whole runs stays
// single-threaded.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers resolves a worker-count flag value: n > 0 is used as
// given, anything else (0 or negative) means GOMAXPROCS.
func defaultWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(0..n-1) on up to workers goroutines and returns the results
// indexed by input: out[i] = fn(i). With workers <= 1 (or n == 1) it runs
// serially on the calling goroutine — the reference path parallel runs must
// match. fn must not touch shared mutable state; each index is handed to
// exactly one worker.
//
// If any fn panics, Map re-panics on the calling goroutine after all
// workers have drained, with the panic from the lowest index so the failure
// is deterministic even when several runs fail.
func Map[T any](workers, n int, fn func(int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	workers = defaultWorkers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}

	type failure struct {
		index int
		value any
	}
	var (
		next  atomic.Int64 // next index to claim
		wg    sync.WaitGroup
		mu    sync.Mutex
		first *failure
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							mu.Lock()
							if first == nil || i < first.index {
								first = &failure{index: i, value: r}
							}
							mu.Unlock()
						}
					}()
					out[i] = fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if first != nil {
		panic(fmt.Sprintf("runner: run %d panicked: %v", first.index, first.value))
	}
	return out
}
