package engine

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/parallel"
)

// Engine schedules n independent, index-addressed work items. See the
// package comment for the determinism contract every implementation
// must satisfy; conforming engines are interchangeable bit-for-bit.
type Engine interface {
	// Name identifies the engine in flags, logs and test output (the
	// built-ins are "serial" and "parallel").
	Name() string
	// Workers reports the pool size the engine will use for n items
	// (at least 1 for n > 0), so callers can size per-worker scratch
	// before fanning out and pass the same count to Run.
	Workers(n int) int
	// Run calls fn(worker, i) for every i in [0, n) exactly once and
	// returns nil after all calls complete. worker is in
	// [0, workers) and owned by one goroutine at a time; workers <= 0
	// means Workers(n). A fired ctx stops dispatch at the next item
	// boundary and returns its error; a panicking item stops dispatch
	// and returns a *parallel.PanicError. On a non-nil error no item
	// was interrupted mid-run and undispatched items were skipped. A
	// nil ctx means context.Background().
	Run(ctx context.Context, n, workers int, fn func(worker, i int)) error
}

// serialEngine is the in-order reference implementation: one
// goroutine, ascending indices, worker 0 throughout.
type serialEngine struct{}

func (serialEngine) Name() string    { return "serial" }
func (serialEngine) Workers(int) int { return 1 }

func (serialEngine) Run(ctx context.Context, n, _ int, fn func(worker, i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if pe := parallel.Capture(0, i, func() { fn(0, i) }); pe != nil {
			return pe
		}
	}
	return nil
}

// wordParallelEngine dispatches onto the internal/parallel worker
// pool (GOMAXPROCS-sized, atomic index handout, inline when the pool
// degenerates to one worker).
type wordParallelEngine struct{}

func (wordParallelEngine) Name() string      { return "parallel" }
func (wordParallelEngine) Workers(n int) int { return parallel.Workers(n) }

func (wordParallelEngine) Run(ctx context.Context, n, workers int, fn func(worker, i int)) error {
	return parallel.Run(ctx, n, workers, fn)
}

// The built-in engines. Serial is the reference oracle tests compare
// against; WordParallel carries the word-parallel production paths and
// is what a nil figures.Config.Engine or serve.Config.Engine means.
var (
	Serial       Engine = serialEngine{}
	WordParallel Engine = wordParallelEngine{}
)

// builtins are the engines Get resolves, sorted by name.
var builtins = []Engine{WordParallel, Serial}

// Get resolves a built-in engine by name; unknown or empty names
// error with the available choices.
func Get(name string) (Engine, error) {
	for _, e := range builtins {
		if e.Name() == name {
			return e, nil
		}
	}
	return nil, fmt.Errorf("engine: unknown engine %q (have %s)", name, strings.Join(Names(), ", "))
}

// Names lists the built-in engine names, sorted.
func Names() []string {
	names := make([]string, len(builtins))
	for i, e := range builtins {
		names[i] = e.Name()
	}
	return names
}

// Check is the one nil-engine rule: every engine-accepting entry point
// reports a nil engine as an error.
func Check(e Engine) error {
	if e == nil {
		return fmt.Errorf("engine: nil engine (use engine.Serial or engine.WordParallel)")
	}
	return nil
}

// Chunked maps fn over the half-open ranges of a balanced partition
// of [0, n): at most e.Workers(n) chunks, each at least minChunk
// items (so cheap per-item work pays per-chunk dispatch overhead),
// dispatched on e under ctx. On a one-worker engine, or when the
// partition degenerates, the single chunk is the pure serial walk.
func Chunked(ctx context.Context, e Engine, n, minChunk int, fn func(lo, hi int)) error {
	if err := Check(e); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	if minChunk < 1 {
		minChunk = 1
	}
	chunks := e.Workers(n)
	if max := (n + minChunk - 1) / minChunk; chunks > max {
		chunks = max
	}
	return e.Run(ctx, chunks, chunks, func(_, c int) {
		fn(c*n/chunks, (c+1)*n/chunks)
	})
}
