// Package hotalloc is an analyzer fixture: per-item allocation inside
// parallel worker bodies, next to the per-worker scratch pattern that
// must pass.
package hotalloc

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/parallel"
)

// BadPerItem allocates and formats once per item.
func BadPerItem(n int) []string {
	out := make([]string, n)
	parallel.For(n, func(i int) {
		buf := make([]byte, 64)       // want hotalloc
		out[i] = fmt.Sprintf("%d", i) // want hotalloc
		var tail []byte
		tail = append(tail, buf[:8]...) // want hotalloc
		_ = tail
	})
	return out
}

// BadEnginePerItem allocates per item inside an engine-dispatched
// worker body: Engine.Run is a fan-out exactly like parallel.Run.
func BadEnginePerItem(ctx context.Context, e engine.Engine, n int) ([]string, error) {
	out := make([]string, n)
	err := e.Run(ctx, n, 0, func(_, i int) {
		buf := make([]byte, 8) // want hotalloc
		buf[0] = byte(i)
		out[i] = string(buf[:1])
	})
	return out, err
}

// BadCtxPerItem allocates per item inside the Partial helper:
// engine.RunPartial fans out exactly like Engine.Run, so its closures
// are just as hot.
func BadCtxPerItem(ctx context.Context, e engine.Engine, n int) ([]string, error) {
	out := make([]string, n)
	err := engine.RunPartial(ctx, e, n, func(i int) {
		out[i] = fmt.Sprint(i) // want hotalloc
	})
	return out, err
}

// GoodEngineScratch hoists per-worker scratch ahead of the engine
// fan-out and addresses it by Run's worker index.
func GoodEngineScratch(ctx context.Context, e engine.Engine, n int) ([]int, error) {
	workers := e.Workers(n)
	scratch := make([][]byte, workers)
	for w := range scratch {
		scratch[w] = make([]byte, 8)
	}
	out := make([]int, n)
	err := e.Run(ctx, n, workers, func(worker, i int) {
		buf := scratch[worker]
		buf[0] = byte(i)
		out[i] = int(buf[0])
	})
	return out, err
}

// GoodScratch is the parallel.Run pattern: one scratch buffer per
// worker, sized before the fan-out.
func GoodScratch(n, workers int) []int {
	if workers < 1 {
		workers = parallel.Workers(n)
	}
	scratch := make([][]byte, workers)
	for w := range scratch {
		scratch[w] = make([]byte, 64)
	}
	out := make([]int, n)
	if err := parallel.Run(context.Background(), n, workers, func(worker, i int) {
		buf := scratch[worker]
		buf[0] = byte(i)
		out[i] = int(buf[0])
	}); err != nil {
		return nil
	}
	return out
}
