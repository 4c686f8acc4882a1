package dse

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/engine/enginetest"
	"repro/internal/numeric"
	"repro/internal/stochastic"
)

// TestEngineSuite registers every engine-accepting entry point of the
// package — the sweep runner, the yield study, the checkpointer and
// every figure generator built on them — into the generic cross-engine
// equivalence and GOMAXPROCS-determinism suite, at sizes small enough
// to replay on every engine.
func TestEngineSuite(t *testing.T) {
	enginetest.Run(t, nil, []enginetest.Case{
		{
			Name: "dse.Sweep",
			Eval: func(e engine.Engine) (any, error) {
				return Sweep(ctx, e, 100, func(i int) (uint64, error) {
					return stochastic.DeriveSeed(42, i) ^ uint64(i*i), nil
				})
			},
		},
		{
			Name: "dse.YieldStudy.Run",
			Eval: func(e engine.Engine) (any, error) {
				return yieldStudyFixture().Run(ctx, e)
			},
		},
		{
			Name: "dse.Checkpointer.Run+RunCheckpointed",
			Eval: func(e engine.Engine) (any, error) {
				// A fresh un-persisted checkpointer (empty Path would
				// fail the save, so use a per-eval temp file) replays the
				// study through Checkpointer.Run via RunCheckpointed.
				s := yieldStudyFixture()
				dir, err := os.MkdirTemp("", "dse-enginetest-*")
				if err != nil {
					return nil, err
				}
				defer os.RemoveAll(dir)
				cp := NewCheckpointer[core.DieOutcome](filepath.Join(dir, "ck.json"), 0, s.Key())
				return s.RunCheckpointed(ctx, e, cp)
			},
		},
		{Name: "dse.Fig5C", Eval: func(e engine.Engine) (any, error) { return Fig5C(ctx, e) }},
		{Name: "dse.Fig6A", Eval: func(e engine.Engine) (any, error) { return Fig6A(ctx, e, 3, 4) }},
		{Name: "dse.Fig6B", Eval: func(e engine.Engine) (any, error) { return Fig6B(ctx, e, []float64{1e-2, 1e-6}) }},
		{
			Name: "dse.Fig6C",
			Eval: func(e engine.Engine) (any, error) {
				pts, err := Fig6C(ctx, e)
				// Per-point errors are compared by text.
				msgs := make([]string, len(pts))
				for i := range pts {
					if pts[i].Err != nil {
						msgs[i] = pts[i].Err.Error()
						pts[i].Err = nil
					}
				}
				return []any{pts, msgs}, err
			},
		},
		{Name: "dse.Fig7A", Eval: func(e engine.Engine) (any, error) { return Fig7A(ctx, e, []int{2, 4}, 5) }},
		{Name: "dse.Fig7B", Eval: func(e engine.Engine) (any, error) { return Fig7B(ctx, e, []int{2, 4}) }},
		{Name: "dse.Summary", Eval: func(e engine.Engine) (any, error) { return Summary(ctx, e) }},
		{Name: "dse.ApplicationProfile", Eval: func(e engine.Engine) (any, error) { return ApplicationProfile(ctx, e) }},
		{
			Name: "dse.RingSensitivity",
			Eval: func(e engine.Engine) (any, error) { return RingSensitivity(ctx, e, []float64{0.75, 1.25, -1}) },
		},
		{
			Name: "dse.NoiseStudy",
			Eval: func(e engine.Engine) (any, error) {
				return NoiseStudy(ctx, e, NoiseStudySpec{
					X: 0.5, Lengths: []int{64}, ProbeMW: []float64{1, 0.5}, Trials: 2, BERBits: 1_000, Seed: 21,
				})
			},
		},
		{Name: "dse.EdgeStudy", Eval: func(e engine.Engine) (any, error) { return EdgeStudy(ctx, e, []int{64, 128}, 7) }},
		{
			Name: "dse.StreamLengthSweep",
			Eval: func(e engine.Engine) (any, error) { return StreamLengthSweep(ctx, e, []int{64, 128}, 5, 9) },
		},
	})
}

// yieldStudyFixture is a small but non-trivial study shared by the
// suite cases and the checkpoint tests.
func yieldStudyFixture() YieldStudy {
	return YieldStudy{
		Params:    core.PaperParams(),
		SigmasNM:  []float64{0.01, 0.1},
		Samples:   6,
		Seed:      99,
		TargetBER: 1e-6,
	}
}

// TestSweepErrOnLowestIndexError: the deterministic error choice holds
// on every engine, fixtures included.
func TestSweepErrOnLowestIndexError(t *testing.T) {
	for _, e := range enginetest.Engines() {
		_, err := Sweep(ctx, e, 10, func(i int) (int, error) {
			if i%3 == 2 { // fails at 2, 5, 8
				return 0, fmt.Errorf("point %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "point 2" {
			t.Fatalf("engine %q: err = %v, want the lowest failing index", e.Name(), err)
		}
	}
}

// TestNilEngineMisuse: the sweep runner and every figure generator
// reject a nil engine with a clean error — no entry point panics.
func TestNilEngineMisuse(t *testing.T) {
	if _, err := Sweep(ctx, nil, 4, func(i int) (int, error) { return i, nil }); err == nil {
		t.Error("Sweep(nil) did not error")
	}
	if _, err := yieldStudyFixture().Run(ctx, nil); err == nil {
		t.Error("YieldStudy.Run(nil) did not error")
	}
	if _, err := Fig6A(ctx, nil, 2, 2); err == nil {
		t.Error("Fig6A(nil) did not error")
	}
	if _, err := Summary(ctx, nil); err == nil {
		t.Error("Summary(nil) did not error")
	}
}

// sweepEngineBench drives a representative engine-dispatched workload —
// 64 independent MRR-first energy solves, the grain of the Fig. 7
// sweeps — through Sweep on the given engine.
func sweepEngineBench(b *testing.B, e engine.Engine) {
	m := core.NewEnergyModel(2)
	ws := numeric.Linspace(0.11, 0.3, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(ctx, e, len(ws), func(k int) (core.EnergyBreakdown, error) {
			return m.Breakdown(ws[k])
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepEngineSerial(b *testing.B) { sweepEngineBench(b, engine.Serial) }

func BenchmarkSweepEngine(b *testing.B) { sweepEngineBench(b, engine.WordParallel) }
