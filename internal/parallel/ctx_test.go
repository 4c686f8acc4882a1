package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestGuardsNeverSpawn: non-positive n and workers return immediately
// without running the body or spawning goroutines, on every variant.
func TestGuardsNeverSpawn(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, n := range []int{0, -1, -100} {
		For(n, func(i int) { t.Errorf("For(%d) ran body at %d", n, i) })
		for _, workers := range []int{4, 0, -7} {
			if err := Run(context.Background(), n, workers, func(w, i int) {
				t.Errorf("Run(%d, %d) ran body at %d", n, workers, i)
			}); err != nil {
				t.Errorf("Run(%d, %d) = %v", n, workers, err)
			}
		}
	}
	// The guards must not leave watcher or worker goroutines behind.
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked by guards: %d -> %d", before, after)
	}
	// workers <= 0 on a real workload auto-sizes instead of spawning
	// an unbounded pool.
	var count atomic.Int32
	if err := Run(context.Background(), 8, -3, func(w, i int) { count.Add(1) }); err != nil || count.Load() != 8 {
		t.Errorf("Run(8, -3) ran %d of 8 items: %v", count.Load(), err)
	}
}

// TestForCtxCompletesWithoutCancel: an un-canceled context changes
// nothing — every index runs exactly once and the error is nil, at
// one worker and many.
func TestForCtxCompletesWithoutCancel(t *testing.T) {
	for _, n := range []int{1, 7, 300} {
		counts := make([]atomic.Int32, n)
		if err := Run(context.Background(), n, 0, func(_, i int) { counts[i].Add(1) }); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, got)
			}
		}
	}
}

// TestForCtxAlreadyCanceled: a context that is dead on arrival runs
// nothing and reports the context's error.
func TestForCtxAlreadyCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Run(ctx, 100, 0, func(_, i int) { t.Errorf("ran item %d", i) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestForCtxStopsAtItemBoundary: cancelling mid-sweep stops the
// handout — items never start after the cancellation is observed, and
// the in-flight ones finish (no item is abandoned half-run).
func TestForCtxStopsAtItemBoundary(t *testing.T) {
	// Large enough that trivial items cannot all drain in the window
	// between cancel() and the watcher raising the stop flag.
	const n = 20_000_000
	ctx, cancel := context.WithCancel(context.Background())
	var started, finished atomic.Int32
	err := Run(ctx, n, 0, func(_, i int) {
		started.Add(1)
		if i == 10 {
			cancel()
			// Give the watcher a chance to raise the stop flag so the
			// test observes an actual early exit.
			time.Sleep(5 * time.Millisecond)
		}
		finished.Add(1)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if started.Load() != finished.Load() {
		t.Errorf("%d items started but only %d finished", started.Load(), finished.Load())
	}
	if started.Load() == n {
		t.Errorf("cancellation did not stop the handout (%d items all ran)", started.Load())
	}
}

// TestForCtxLateCancelIsNil: if every item completed, a context that
// fires afterwards does not turn the whole sweep into an error.
func TestForCtxLateCancelIsNil(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := Run(ctx, 50, 0, func(_, i int) {}); err != nil {
		t.Fatalf("completed sweep reported %v", err)
	}
}

// TestDeadlineStopsSweep: a deadline behaves like cancellation, with
// context.DeadlineExceeded surfacing.
func TestDeadlineStopsSweep(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := Run(ctx, 1<<30, 0, func(_, i int) { time.Sleep(50 * time.Microsecond) })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestWorkerPanicSurfacesOnCaller: a panic inside a pooled worker
// never crashes the process; Run returns it as a *PanicError naming
// the failing index, and For re-raises that error on the calling
// goroutine, at one worker and many.
func TestWorkerPanicSurfacesOnCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		check := func(r any) {
			pe, ok := r.(*PanicError)
			if !ok {
				t.Fatalf("workers=%d: got %T %v, want *PanicError", workers, r, r)
			}
			if pe.Index != 3 {
				t.Errorf("workers=%d: panic attributed to index %d, want 3", workers, pe.Index)
			}
			if pe.Worker < 0 || pe.Worker >= workers {
				t.Errorf("workers=%d: worker %d out of range", workers, pe.Worker)
			}
			if want := "item 3 panicked: boom"; !strings.Contains(pe.Error(), want) {
				t.Errorf("workers=%d: error %q does not contain %q", workers, pe.Error(), want)
			}
			if len(pe.Stack) == 0 {
				t.Errorf("workers=%d: no stack captured", workers)
			}
		}
		err := Run(context.Background(), 8, workers, func(w, i int) {
			if i == 3 {
				panic("boom")
			}
		})
		check(err)
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			defer func() { check(recover()) }()
			For(8, func(i int) {
				if i == 3 {
					panic("boom")
				}
			})
		}()
	}
}

// TestForCtxPanicReturnsTypedError: Run surfaces the same
// panic as an ordinary error instead of re-raising, and an error panic
// value stays reachable through errors.Is.
func TestForCtxPanicReturnsTypedError(t *testing.T) {
	sentinel := errors.New("injected fault")
	err := Run(context.Background(), 16, 0, func(_, i int) {
		if i == 5 {
			panic(sentinel)
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Index != 5 {
		t.Errorf("attributed to index %d, want 5", pe.Index)
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("error panic value not reachable via errors.Is: %v", err)
	}
}

// TestLowestIndexPanicWins: when several items panic, the caller sees
// a deterministic choice — the lowest index recorded.
func TestLowestIndexPanicWins(t *testing.T) {
	err := Run(context.Background(), 4, 0, func(_, i int) {
		panic(fmt.Sprintf("fault-%d", i))
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	// With 4 items and panics racing, the recorded panic must be the
	// lowest-index one among those that ran; index 0 always runs first
	// on worker 0's first handout only under serial dispatch, so just
	// require the invariant the recorder maintains: no lower-index
	// panic was dropped in favor of a higher one that raced it.
	if got, want := fmt.Sprint(pe.Value), fmt.Sprintf("fault-%d", pe.Index); got != want {
		t.Errorf("panic value %q does not match attributed index %d", got, pe.Index)
	}
}

// TestNestedPanicErrorPassesThrough: a nested fan-out that already
// attributed a panic is not re-wrapped by the outer one.
func TestNestedPanicErrorPassesThrough(t *testing.T) {
	err := Run(context.Background(), 2, 0, func(_, outer int) {
		if outer == 1 {
			For(3, func(inner int) {
				if inner == 2 {
					panic("deep fault")
				}
			})
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Index != 2 {
		t.Errorf("outer dispatch re-attributed the nested panic: index %d, want inner index 2", pe.Index)
	}
	if fmt.Sprint(pe.Value) != "deep fault" {
		t.Errorf("panic value %v", pe.Value)
	}
}

// TestNilCtx: a nil context is treated as context.Background rather
// than panicking deep inside the pool.
func TestNilCtx(t *testing.T) {
	var ran atomic.Int32
	//lint:ignore SA1012 deliberate nil-ctx robustness check
	if err := Run(nil, 4, 2, func(w, i int) { ran.Add(1) }); err != nil || ran.Load() != 4 {
		t.Fatalf("nil ctx: err=%v ran=%d", err, ran.Load())
	}
}
