// Package parallel provides the small worker-pool primitive shared by
// the batch evaluation engines in internal/stochastic and
// internal/core: a deterministic-by-index parallel for-loop sized to
// the machine, with panic containment, and a context-aware Run for
// long-running sweeps that must stop at an item boundary.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is the typed error a panicking work item surfaces as: the
// panic value plus the worker and item index it was raised on, and the
// stack captured at the panic site. For re-raises it on the calling
// goroutine (so a worker panic never crashes the process ungoverned);
// Run returns it as an ordinary error.
type PanicError struct {
	// Worker and Index attribute the panic to the pool goroutine and
	// the dispatch index it was processing.
	Worker, Index int
	// Value is the original panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: worker %d: item %d panicked: %v", e.Worker, e.Index, e.Value)
}

// Unwrap exposes a panic value that is itself an error (the chaos
// fixture's injected enginetest.ChaosPanic, a re-raised runtime
// error) to errors.Is/As chains.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Capture runs fn and converts a panic into a *PanicError attributed
// to (worker, index). A fn that panics with a *PanicError — a nested
// fan-out that already attributed the failure — passes through
// unchanged, keeping the innermost attribution. Returns nil when fn
// completes normally.
func Capture(worker, index int, fn func()) (pe *PanicError) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if inner, ok := r.(*PanicError); ok {
			pe = inner
			return
		}
		pe = &PanicError{Worker: worker, Index: index, Value: r, Stack: debug.Stack()}
	}()
	fn()
	return nil
}

// Workers returns the pool size used for n independent work items:
// runtime.GOMAXPROCS(0) — the CPUs the scheduler may actually use,
// which callers (and tests) can pin below runtime.NumCPU() — clamped
// to n and to at least 1.
func Workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// For runs fn(i) for every i in [0, n) on a Workers(n)-sized pool —
// the primitive the engine-less batch evaluators fan out on. Indices
// are handed out through an atomic counter, so the assignment of
// indices to workers is scheduling-dependent — fn must derive any
// randomness from i alone (not from worker identity) for results to
// be reproducible. For returns once every call has completed. A
// non-positive n returns immediately without spawning goroutines.
//
// A panicking item does not crash the process from its worker
// goroutine: the panic is captured, remaining items are abandoned, and
// once every worker has stopped the panic is re-raised on the caller
// as a *PanicError naming the worker and index.
func For(n int, fn func(i int)) {
	var stop atomic.Bool
	if _, pe := forWorker(&stop, n, 0, func(_, i int) { fn(i) }); pe != nil {
		panic(pe)
	}
}

// Run is the cancellable, worker-aware dispatch the word-parallel
// engine is built on. fn receives the executing worker's pool index
// (in [0, workers)) alongside the item index. Each worker index
// belongs to exactly one goroutine for the duration of the call, so fn
// may use it to address per-worker scratch without synchronization —
// keeping allocations O(workers) instead of O(items). Callers that
// pre-size scratch pass the same `workers` they sized it for (clamped
// to [1, n]); workers <= 0 means Workers(n). The caller-supplied count
// is what makes the scratch contract race-free: sizing from a separate
// Workers call could disagree with the pool if GOMAXPROCS moved in
// between. Which worker runs which item is nondeterministic, so
// scratch must carry no state between items that affects results.
//
// Once ctx is done, no new items are handed out and Run returns
// ctx.Err() after the in-flight items finish — the sweep stops at an
// item boundary, never mid-item. Items that were not dispatched are
// skipped, so on a non-nil error the results are partial; callers that
// need to know which items ran track completion per index
// (engine.RunPartial does). A panicking item is returned as a
// *PanicError (the lowest index when several race). Returns nil once
// every item has completed; a nil ctx means context.Background().
func Run(ctx context.Context, n, workers int, fn func(worker, i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	// An atomic stop flag keeps the per-item cost of honoring ctx to
	// one relaxed load; a watcher goroutine raises it when ctx fires.
	var stop atomic.Bool
	if done := ctx.Done(); done != nil {
		finished := make(chan struct{})
		defer close(finished)
		go func() {
			select {
			case <-done:
				stop.Store(true)
			case <-finished:
			}
		}()
	}
	allDone, pe := forWorker(&stop, n, workers, fn)
	switch {
	case pe != nil:
		return pe
	case allDone:
		// Every item completed before the cancellation was observed;
		// the sweep is whole, so a late ctx firing is not an error.
		return nil
	default:
		return ctx.Err()
	}
}

// forWorker dispatches under a stop flag, re-raising nothing: it
// reports whether every item ran to completion, plus the first
// captured *PanicError (lowest index when several race) for the
// caller to re-raise or surface as an error.
func forWorker(stop *atomic.Bool, n, workers int, fn func(worker, i int)) (allDone bool, first *PanicError) {
	if n <= 0 {
		return true, nil
	}
	if workers < 1 {
		workers = Workers(n)
	}
	if workers > n {
		workers = n
	}

	var panicMu sync.Mutex
	record := func(pe *PanicError) {
		panicMu.Lock()
		if first == nil || pe.Index < first.Index {
			first = pe
		}
		panicMu.Unlock()
		// Abandon the remaining handout: the caller is about to see
		// the panic, so finishing the sweep would be wasted work.
		stop.Store(true)
	}

	if workers == 1 {
		for i := 0; i < n; i++ {
			if stop.Load() {
				return false, first
			}
			if pe := Capture(0, i, func() { fn(0, i) }); pe != nil {
				record(pe)
				return false, first
			}
		}
		return true, nil
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if pe := Capture(worker, i, func() { fn(worker, i) }); pe != nil {
					record(pe)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Workers return only after their in-flight item completes, so a
	// handout counter that reached n means every index was dispatched
	// and finished.
	return first == nil && int(next.Load()) >= n, first
}
