package transient

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/enginetest"
)

// TestEngineSuite registers every engine-accepting entry point of this
// package into the generic cross-engine equivalence and
// GOMAXPROCS-determinism suite: every engine in enginetest.Engines()
// must reproduce the engine.Serial reference bit-identically.
func TestEngineSuite(t *testing.T) {
	ctx := context.Background()
	base, powers := waterfallPowers(t)
	enginetest.Run(t, nil, []enginetest.Case{
		{
			Name: "transient.AccuracyVsLength",
			Eval: func(e engine.Engine) (any, error) {
				s := newTestSim(t, 0, 80)
				// Degenerate lengths (0, duplicates of word edges)
				// exercise the valid-length filter.
				return s.AccuracyVsLength(ctx, e, 0.5, []int{1, 63, 64, 0, 65, 300}, 5)
			},
		},
		{
			Name: "transient.Simulator.EvaluateBatch",
			Eval: func(e engine.Engine) (any, error) {
				// Hot link so noise flips decisions; word-edge lengths
				// and more trials than any fixture's worker count.
				xs := make([]float64, 37)
				for i := range xs {
					xs[i] = float64(i) / 36
				}
				return hotSim(t, 81).EvaluateBatch(ctx, e, xs, 65)
			},
		},
		{
			Name: "transient.BERWaterfall",
			Eval: func(e engine.Engine) (any, error) {
				return BERWaterfall(ctx, e, base, powers, 20_000, 41)
			},
		},
		{
			Name: "transient.Simulator.Trace",
			Eval: func(e engine.Engine) (any, error) {
				// Fresh simulator per call: the trace advances the
				// unit SNGs and the noise stream.
				s := newTestSim(t, 0, 75)
				return s.Trace(ctx, e, 0.5, 65, 4)
			},
		},
		{
			Name: "transient.Simulator.MeasureEye",
			Eval: func(e engine.Engine) (any, error) {
				s := newTestSim(t, 0, 72)
				return s.MeasureEye(ctx, e, 0.5, 1000)
			},
		},
		{
			Name: "transient.Simulator.SyncSweep",
			Eval: func(e engine.Engine) (any, error) {
				// Noisy link so per-slot decisions actually flip; odd
				// counts exercise partial noise blocks.
				s := newTestSim(t, 0.02, 93)
				return s.SyncSweep(ctx, e, 13, 997)
			},
		},
	})
}

// TestWaterfallCtxCancellation: a canceled waterfall surfaces the
// sweep layer's typed partial error instead of a curve.
func TestWaterfallCtxCancellation(t *testing.T) {
	base, powers := waterfallPowers(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := BERWaterfall(ctx, engine.WordParallel, base, powers, 1000, 41)
	var p *engine.Partial
	if !errors.As(err, &p) {
		t.Fatalf("err = %v (%T), want *engine.Partial", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Partial does not carry context.Canceled: %v", err)
	}
}

// TestEvaluateBatchCtxCancellation: a canceled batch surfaces the
// typed partial error instead of values.
func TestEvaluateBatchCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := hotSim(t, 81).EvaluateBatch(ctx, engine.WordParallel, []float64{0.5, 0.5}, 64)
	var p *engine.Partial
	if !errors.As(err, &p) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v (%T), want *engine.Partial carrying context.Canceled", err, err)
	}
}

// TestSerialShims pins the serial oracle onto the engine layer: each
// entry point on engine.Serial equals the word-parallel run.
func TestSerialShims(t *testing.T) {
	ctx := context.Background()
	base, powers := waterfallPowers(t)
	both := func(name string, eval func(e engine.Engine) (any, error)) {
		t.Helper()
		serial, err := eval(engine.Serial)
		if err != nil {
			t.Fatalf("%s on serial: %v", name, err)
		}
		par, err := eval(engine.WordParallel)
		if err != nil {
			t.Fatalf("%s on parallel: %v", name, err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("%s: serial %+v vs parallel %+v", name, serial, par)
		}
	}
	both("AccuracyVsLength", func(e engine.Engine) (any, error) {
		return newTestSim(t, 0, 80).AccuracyVsLength(ctx, e, 0.5, []int{64, 256}, 3)
	})
	both("EvaluateBatch", func(e engine.Engine) (any, error) {
		return hotSim(t, 81).EvaluateBatch(ctx, e, []float64{0.1, 0.5, 0.9}, 300)
	})
	both("BERWaterfall", func(e engine.Engine) (any, error) {
		return BERWaterfall(ctx, e, base, powers, 5_000, 41)
	})
	both("Trace", func(e engine.Engine) (any, error) {
		return newTestSim(t, 0, 75).Trace(ctx, e, 0.5, 65, 4)
	})
	both("MeasureEye", func(e engine.Engine) (any, error) {
		return newTestSim(t, 0, 72).MeasureEye(ctx, e, 0.5, 1000)
	})
	both("SyncSweep", func(e engine.Engine) (any, error) {
		return newTestSim(t, 0.02, 93).SyncSweep(ctx, e, 13, 997)
	})
}

// TestNilEngineMisuse: every entry point rejects a nil engine with a
// clean error.
func TestNilEngineMisuse(t *testing.T) {
	ctx := context.Background()
	s := newTestSim(t, 0, 99)
	if _, err := s.AccuracyVsLength(ctx, nil, 0.5, []int{64}, 1); err == nil {
		t.Error("AccuracyVsLength(nil) did not error")
	}
	if _, err := s.EvaluateBatch(ctx, nil, []float64{0.5}, 64); err == nil {
		t.Error("EvaluateBatch(nil) did not error")
	}
	base, powers := waterfallPowers(t)
	if _, err := BERWaterfall(ctx, nil, base, powers, 100, 1); err == nil {
		t.Error("BERWaterfall(nil) did not error")
	}
	if _, err := s.Trace(ctx, nil, 0.5, 4, 2); err == nil {
		t.Error("Trace(nil) did not error")
	}
	if _, err := s.MeasureEye(ctx, nil, 0.5, 16); err == nil {
		t.Error("MeasureEye(nil) did not error")
	}
	if _, err := s.SyncSweep(ctx, nil, 4, 16); err == nil {
		t.Error("SyncSweep(nil) did not error")
	}
}
