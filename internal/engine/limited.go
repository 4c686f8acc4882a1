package engine

import (
	"context"
	"sync/atomic"
)

// Limited wraps an inner engine behind a shared slot semaphore: at
// most `slots` work items run concurrently across every dispatch that
// goes through the same Limited instance. It is the admission seam a
// long-running service needs — N concurrent jobs can all dispatch on
// one Limited engine without oversubscribing the machine, because the
// cap applies to the union of their items, not per dispatch.
//
// Limiting changes scheduling only: every index still runs exactly
// once with the same derived seeds, so a Limited engine satisfies the
// full determinism contract and passes the generic enginetest suite
// (its results are bit-identical to engine.Serial).
//
// A work item must not dispatch on the Limited engine it runs on: it
// would hold a slot while its inner items wait for one, and once every
// slot is held that way the engine deadlocks. Nested sweeps run on
// engine.Serial (see the package comment).
type Limited struct {
	name  string
	inner Engine
	slots chan struct{}
}

// NewLimited wraps inner behind a semaphore of `slots` concurrently
// running items. A nil inner or slots < 1 panics: both are
// construction-time programming errors, not dispatch failures.
func NewLimited(name string, inner Engine, slots int) *Limited {
	if err := Check(inner); err != nil {
		panic(err.Error())
	}
	if slots < 1 {
		panic("engine: NewLimited needs slots >= 1")
	}
	return &Limited{name: name, inner: inner, slots: make(chan struct{}, slots)}
}

// Name implements Engine.
func (l *Limited) Name() string { return l.name }

// Workers implements Engine: the inner pool size, capped at the slot
// count (more workers than slots would only block on the semaphore).
func (l *Limited) Workers(n int) int {
	w := l.inner.Workers(n)
	if cap(l.slots) < w {
		return cap(l.slots)
	}
	return w
}

// Slots reports the concurrency cap the engine was built with.
func (l *Limited) Slots() int { return cap(l.slots) }

// InFlight reports how many items are running right now — what a
// service health endpoint surfaces as dispatch load.
func (l *Limited) InFlight() int { return len(l.slots) }

// Run implements Engine. Cancellation is observed both by the inner
// engine's own handout and while waiting for a slot, so a saturated
// semaphore cannot outlive the caller's deadline. An item skipped at
// the slot wait is reported through the returned error — the inner
// dispatch may have walked past it, but Run never returns nil with
// work undone. A slot is released even when its item panics, so a
// fault never leaks semaphore capacity.
func (l *Limited) Run(ctx context.Context, n, workers int, fn func(worker, i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var skipped atomic.Bool
	err := l.inner.Run(ctx, n, workers, func(w, i int) {
		select {
		case l.slots <- struct{}{}:
		case <-ctx.Done():
			skipped.Store(true)
			return
		}
		defer func() { <-l.slots }()
		fn(w, i)
	})
	if err == nil && skipped.Load() {
		err = ctx.Err()
	}
	return err
}
