package dse

import (
	"context"

	"repro/internal/engine"
)

// This file is the deterministic sweep layer the figure generators
// run on. Every design-space study in this package is an
// index-ordered list of independent points — a grid cell of Fig. 6(a),
// one polynomial order of Fig. 7, one (probe, sigma) combination of
// the noise study — so they all reduce to "evaluate point i"
// dispatched on an evaluation engine (internal/engine) through the one
// entry point below. Sweep keeps results in index order and point
// functions derive any randomness from the point index alone
// (stochastic.DeriveSeed(seed, i)), so a sweep returns identical
// results on every conforming engine, at any GOMAXPROCS and under any
// scheduling — which carries every figure built on it through the
// cross-engine equivalence suite for free. A grid is a sweep over
// rows*cols points decoded row-major (r, c = i/cols, i%cols).
//
// Nested sweeps: a point function never dispatches on the engine it
// was handed. Inner engine-accepting calls (core.EnergyModel.Sweep,
// OptimalSpacing, image.RobertsCrossSC,
// transient.Simulator.EvaluateBatch in NoiseStudy, ...) run on
// engine.Serial — an engine.Limited outer engine would otherwise
// deadlock, outer points holding every slot while their inner items
// wait for one. The engine-less batch evaluators
// (stochastic.EvaluateBatch, core.Unit.EvaluateBatch) keep their own
// worker-pool fan-out.

// Sweep evaluates point(i) for every i in [0, n) on e under ctx and
// returns the results in index order. Every point runs; if any fail,
// the error of the lowest failing index is returned (a deterministic
// choice) with a nil slice. An interruption — ctx fired, a point
// panicked, a shard engine skipped the indices it does not own —
// returns the partially filled slice with a *engine.Partial: entries
// whose Done bit is set are valid and safe to persist. A nil engine is
// an error.
func Sweep[T any](ctx context.Context, e engine.Engine, n int, point func(i int) (T, error)) ([]T, error) {
	if n < 0 {
		n = 0
	}
	out := make([]T, n)
	errs := make([]error, n)
	if err := engine.RunPartial(ctx, e, n, func(i int) { out[i], errs[i] = point(i) }); err != nil {
		return out, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
