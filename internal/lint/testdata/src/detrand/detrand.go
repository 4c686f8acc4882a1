// Package detrand is an analyzer fixture: deliberate violations of
// the determinism rule, marked with `// want <rule>` comments, next
// to the conforming patterns the rule must not flag.
package detrand

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/parallel"
	"repro/internal/stochastic"
)

// BadWallClockSeed seeds a worker RNG from the wall clock: both the
// time.Now use and the underived constructor are violations.
func BadWallClockSeed(n int) []float64 {
	out := make([]float64, n)
	parallel.For(n, func(i int) {
		rng := stochastic.NewSplitMix64(uint64(time.Now().UnixNano())) // want detrand detrand
		out[i] = rng.Next()
	})
	return out
}

// BadSharedSeed constructs a per-item RNG from the item index without
// DeriveSeed — correlated streams across items.
func BadSharedSeed(n int, seed uint64) []float64 {
	out := make([]float64, n)
	_ = parallel.Run(context.Background(), n, 0, func(_, i int) {
		rng := stochastic.NewSplitMix64(seed + uint64(i)) // want detrand
		out[i] = rng.Next()
	})
	return out
}

// BadGlobalRand draws from the process-global math/rand source.
func BadGlobalRand() float64 {
	return rand.Float64() // want detrand
}

// GoodDirect derives the per-item seed in the closure body.
func GoodDirect(n int, seed uint64) []float64 {
	out := make([]float64, n)
	parallel.For(n, func(i int) {
		rng := stochastic.NewSplitMix64(stochastic.DeriveSeed(seed, i))
		out[i] = rng.Next()
	})
	return out
}

// itemSeed is the seed-helper pattern (trialSeeds, waterfallSeeds):
// the closure calls it, and it derives through DeriveSeed.
func itemSeed(base uint64, i int) uint64 {
	return stochastic.DeriveSeed(base, i)
}

// GoodHelper derives through a same-package helper.
func GoodHelper(n int, seed uint64) []float64 {
	out := make([]float64, n)
	parallel.For(n, func(i int) {
		rng := stochastic.NewSplitMix64(itemSeed(seed, i))
		out[i] = rng.Next()
	})
	return out
}

// BadEngineSeed constructs an underived per-item RNG inside an
// engine-dispatched worker body: Engine.Run is a fan-out exactly like
// parallel.Run, so the same discipline applies.
func BadEngineSeed(ctx context.Context, e engine.Engine, n int, seed uint64) ([]float64, error) {
	out := make([]float64, n)
	err := e.Run(ctx, n, 0, func(_, i int) {
		rng := stochastic.NewSplitMix64(seed + uint64(i)) // want detrand
		out[i] = rng.Next()
	})
	return out, err
}

// BadEngineWallClock seeds an Engine.Run worker RNG from the wall
// clock: the time.Now use and the underived constructor both flag.
func BadEngineWallClock(ctx context.Context, e engine.Engine, n int) ([]float64, error) {
	out := make([]float64, n)
	err := e.Run(ctx, n, 0, func(_, i int) {
		rng := stochastic.NewSplitMix64(uint64(time.Now().UnixNano())) // want detrand detrand
		out[i] = rng.Next()
	})
	return out, err
}

// GoodEngineSeed derives per-item seeds on the engine dispatch path.
func GoodEngineSeed(ctx context.Context, e engine.Engine, n int, seed uint64) ([]float64, error) {
	out := make([]float64, n)
	err := e.Run(ctx, n, 0, func(_, i int) {
		rng := stochastic.NewSplitMix64(stochastic.DeriveSeed(seed, i))
		out[i] = rng.Next()
	})
	return out, err
}

// BadShardSeed constructs an underived per-item RNG inside a
// shard-filtered dispatch: engine.Shard.Run only narrows which indices
// run, so its closures are worker bodies under the same discipline.
func BadShardSeed(ctx context.Context, e engine.Engine, n int, seed uint64) ([]float64, error) {
	out := make([]float64, n)
	err := engine.Shard{K: 0, N: 2, Inner: e}.Run(ctx, n, 0, func(_, i int) {
		rng := stochastic.NewSplitMix64(seed + uint64(i)) // want detrand
		out[i] = rng.Next()
	})
	return out, err
}

// GoodShardSeed derives per-item seeds on the sharded dispatch path —
// the property that makes shard outputs reassemble bit-identically.
func GoodShardSeed(ctx context.Context, e engine.Engine, n int, seed uint64) ([]float64, error) {
	out := make([]float64, n)
	err := engine.Shard{K: 0, N: 2, Inner: e}.Run(ctx, n, 0, func(_, i int) {
		rng := stochastic.NewSplitMix64(stochastic.DeriveSeed(seed, i))
		out[i] = rng.Next()
	})
	return out, err
}

// BadPartialSeed constructs an underived per-item RNG inside the
// Partial helper: engine.RunPartial stops early but never re-runs an
// item, so its closures obey the same discipline as Engine.Run.
func BadPartialSeed(ctx context.Context, e engine.Engine, n int, seed uint64) ([]float64, error) {
	out := make([]float64, n)
	err := engine.RunPartial(ctx, e, n, func(i int) {
		rng := stochastic.NewSplitMix64(seed + uint64(i)) // want detrand
		out[i] = rng.Next()
	})
	return out, err
}

// BadChunkedSeed is the same violation inside an engine.Chunked
// range body.
func BadChunkedSeed(ctx context.Context, e engine.Engine, n int, seed uint64) ([]float64, error) {
	out := make([]float64, n)
	err := engine.Chunked(ctx, e, n, 4, func(lo, hi int) {
		rng := stochastic.NewSplitMix64(seed ^ uint64(lo)) // want detrand
		for i := lo; i < hi; i++ {
			out[i] = rng.Next()
		}
	})
	return out, err
}

// GoodPartialSeed derives per-item seeds in the Partial helper.
func GoodPartialSeed(ctx context.Context, e engine.Engine, n int, seed uint64) ([]float64, error) {
	out := make([]float64, n)
	err := engine.RunPartial(ctx, e, n, func(i int) {
		rng := stochastic.NewSplitMix64(stochastic.DeriveSeed(seed, i))
		out[i] = rng.Next()
	})
	return out, err
}

// GoodSerial constructs its RNG outside any worker closure — the
// serial-oracle pattern, not flagged.
func GoodSerial(n int, seed uint64) []float64 {
	rng := stochastic.NewSplitMix64(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Next()
	}
	return out
}
