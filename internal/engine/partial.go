package engine

import (
	"context"
	"fmt"
)

// Partial is the typed error an interrupted sweep returns: which
// points completed before the run stopped, and why it stopped. The
// cause is reachable through errors.Is/As — context.Canceled or
// context.DeadlineExceeded for cancellation, *parallel.PanicError for
// a panicking work item, ErrShardRemainder for a shard's deliberate
// skip.
//
// A Partial accompanies partial results: sweep runners that return it
// also return their output slice with Done[i]==true entries valid, so
// checkpointing layers can persist what finished.
type Partial struct {
	// N is the sweep size; Completed counts finished points.
	N, Completed int
	// Done reports per-index completion; len(Done) == N.
	Done []bool
	// Cause is the underlying interruption.
	Cause error
}

// Error implements error.
func (p *Partial) Error() string {
	return fmt.Sprintf("engine: sweep interrupted after %d/%d points: %v", p.Completed, p.N, p.Cause)
}

// Unwrap exposes the cause to errors.Is/As.
func (p *Partial) Unwrap() error { return p.Cause }

// RunPartial dispatches fn over [0, n) on e under ctx and reports an
// interruption as a *Partial carrying the per-index completion bitmap
// — the primitive every sweep entry point (dse.Sweep,
// transient.BERWaterfall, ...) is built on. Returns nil once every
// item completed; a nil engine is an error.
func RunPartial(ctx context.Context, e Engine, n int, fn func(i int)) error {
	if err := Check(e); err != nil {
		return err
	}
	if n < 0 {
		n = 0
	}
	done := make([]bool, n)
	err := e.Run(ctx, n, 0, func(_, i int) {
		fn(i)
		done[i] = true
	})
	if err == nil {
		return nil
	}
	completed := 0
	for _, d := range done {
		if d {
			completed++
		}
	}
	return &Partial{N: n, Completed: completed, Done: done, Cause: err}
}
