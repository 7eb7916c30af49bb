// Package sweep provides the bounded worker pool behind the experiment
// harness. Every cell of a configuration sweep — one (backend, kernel,
// mode) machine run, one figure point — is independent, so the harness
// fans cells out across goroutines and reassembles the results in input
// order. The output of a parallel sweep is byte-identical to a sequential
// one; only the wall clock changes.
package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a -j style worker-count request: n > 0 is used as
// given; anything else defaults to runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// MachineWorkers resolves the intra-machine scheduler budget for one cell
// of a sweep that fans out sweepWorkers cells concurrently. An explicit
// request (> 0) wins. 0 divides GOMAXPROCS across the sweep — each cell
// gets floor(GOMAXPROCS / sweepWorkers) scheduler goroutines, at least 1 —
// so sweep-level and machine-level parallelism together never oversubscribe
// the host: sweepWorkers × MachineWorkers(0, sweepWorkers) ≤ GOMAXPROCS.
func MachineWorkers(requested, sweepWorkers int) int {
	if requested > 0 {
		return requested
	}
	if sweepWorkers < 1 {
		sweepWorkers = 1
	}
	w := runtime.GOMAXPROCS(0) / sweepWorkers
	if w < 1 {
		w = 1
	}
	return w
}

// Map evaluates fn(0), …, fn(n-1) and returns the results in index order.
//
// The worker count is resolved through Workers. One worker runs the calls
// inline, sequentially, in index order — the exact pre-pool execution
// path. More workers fan the indices out across a bounded pool of
// goroutines. fn must therefore be safe to call from multiple goroutines
// when workers != 1 (cells must not share mutable state).
//
// On failure Map stops issuing new indices, waits for in-flight calls,
// and returns the error of the lowest failing index — with one worker
// exactly the first error a sequential run reports. Indices are claimed in
// order and a claimed index always runs, so every index below a failing
// one runs too.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		next     atomic.Int64 // next index to claim
		stop     atomic.Bool  // set on first error: stop issuing work
		mu       sync.Mutex
		firstErr error
		errIdx   = n // lowest failing index seen so far
		wg       sync.WaitGroup
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				v, err := fn(i)
				if err != nil {
					mu.Lock()
					if i < errIdx {
						errIdx, firstErr = i, err
					}
					mu.Unlock()
					stop.Store(true)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// Each is Map for functions with no result value.
func Each(workers, n int, fn func(i int) error) error {
	_, err := Map(workers, n, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}
