package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/parallel"
)

// TestLimitedRunsEveryIndexOnce: the semaphore changes scheduling
// only — every index still runs exactly once, at the default and an
// explicit worker count.
func TestLimitedRunsEveryIndexOnce(t *testing.T) {
	l := NewLimited("t", WordParallel, 2)
	const n = 64
	for _, w := range []int{0, l.Workers(n)} {
		var counts [n]atomic.Int32
		if err := l.Run(context.Background(), n, w, func(_, i int) { counts[i].Add(1) }); err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times, want 1", w, i, got)
			}
		}
	}
}

// TestLimitedCapsConcurrency: at no instant do more than Slots()
// items run, even when the inner pool is wider.
func TestLimitedCapsConcurrency(t *testing.T) {
	const slots = 2
	l := NewLimited("t", WordParallel, slots)
	var cur, peak atomic.Int32
	err := l.Run(context.Background(), 128, 0, func(int, int) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		cur.Add(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > slots {
		t.Fatalf("peak concurrency %d exceeds the %d-slot cap", p, slots)
	}
	if in := l.InFlight(); in != 0 {
		t.Fatalf("InFlight() = %d after dispatch returned, want 0", in)
	}
}

// TestLimitedWorkersCappedBySlots: Workers never reports more
// parallelism than the semaphore allows.
func TestLimitedWorkersCappedBySlots(t *testing.T) {
	l := NewLimited("t", WordParallel, 1)
	if w := l.Workers(100); w != 1 {
		t.Fatalf("Workers(100) = %d with 1 slot, want 1", w)
	}
	if s := l.Slots(); s != 1 {
		t.Fatalf("Slots() = %d, want 1", s)
	}
}

// TestLimitedReleasesSlotOnPanic: a panicking item must not leak
// semaphore capacity; the panic itself still surfaces typed.
func TestLimitedReleasesSlotOnPanic(t *testing.T) {
	l := NewLimited("t", Serial, 1)
	err := l.Run(context.Background(), 1, 0, func(int, int) { panic("boom") })
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic through Limited returned %v, want *parallel.PanicError", err)
	}
	if in := l.InFlight(); in != 0 {
		t.Fatalf("InFlight() = %d after a panic, want 0 (leaked slot)", in)
	}
	// The freed slot must still be usable.
	ran := false
	if err := l.Run(context.Background(), 1, 0, func(int, int) { ran = true }); err != nil || !ran {
		t.Fatalf("dispatch after a panic: err=%v ran=%v", err, ran)
	}
}

// TestLimitedCtxCancelWhileSaturated: a dispatch cancelled while the
// semaphore is held by someone else reports the cancellation — never
// a silent success with work skipped.
func TestLimitedCtxCancelWhileSaturated(t *testing.T) {
	l := NewLimited("t", WordParallel, 1)
	block := make(chan struct{})
	started := make(chan struct{})
	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		_ = l.Run(context.Background(), 1, 0, func(int, int) { close(started); <-block })
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	ran := make(chan struct{}, 1)
	go func() {
		errCh <- l.Run(ctx, 1, 0, func(int, int) { ran <- struct{}{} })
	}()
	cancel()
	err := <-errCh
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run under a held slot returned %v, want context.Canceled", err)
	}
	select {
	case <-ran:
		t.Fatal("cancelled dispatch ran its item anyway")
	default:
	}
	close(block)
	<-holderDone
}

// TestLimitedMisuse: the constructor rejects broken configurations
// loudly.
func TestLimitedMisuse(t *testing.T) {
	for name, build := range map[string]func(){
		"nil inner": func() { NewLimited("t", nil, 1) },
		"zero slot": func() { NewLimited("t", Serial, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewLimited did not panic", name)
				}
			}()
			build()
		}()
	}
}
