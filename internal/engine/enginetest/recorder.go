package enginetest

import (
	"context"
	"slices"
	"sync"

	"repro/internal/engine"
)

// Recorder is a pass-through engine that records the size of every
// dispatch it sees, so a test can prove work reached the engine it
// configured (and not some other one).
type Recorder struct {
	// Inner runs the work.
	Inner engine.Engine

	mu    sync.Mutex
	sizes []int
}

// Name implements engine.Engine.
func (r *Recorder) Name() string { return "recorder(" + r.Inner.Name() + ")" }

// Workers implements engine.Engine.
func (r *Recorder) Workers(n int) int { return r.Inner.Workers(n) }

// Run implements engine.Engine: it records n, then dispatches on Inner.
func (r *Recorder) Run(ctx context.Context, n, workers int, fn func(worker, i int)) error {
	r.mu.Lock()
	r.sizes = append(r.sizes, n)
	r.mu.Unlock()
	return r.Inner.Run(ctx, n, workers, fn)
}

// Dispatches returns the recorded dispatch sizes in arrival order.
func (r *Recorder) Dispatches() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.sizes)
}
