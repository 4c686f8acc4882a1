package core

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/enginetest"
)

// yieldSuiteSpec is the variation fixture shared by the suite cases:
// mild variation so both passing and failing dies occur.
func yieldSuiteSpec() VariationSpec {
	return VariationSpec{
		RingResonanceSigmaNM: 0.05,
		CouplingSigma:        0.01,
		Samples:              24,
		Seed:                 7,
		TargetBER:            1e-6,
	}
}

// TestEngineSuite registers the package's engine-accepting entry
// points into the generic cross-engine equivalence and
// GOMAXPROCS-determinism suite: the chunked bracketing pre-pass of
// OptimalSpacing must land on the bit-identical optimum on every
// engine, and Sweep must filter feasible rows in index order.
func TestEngineSuite(t *testing.T) {
	ctx := context.Background()
	enginetest.Run(t, nil, []enginetest.Case{
		{
			Name: "core.EnergyModel.OptimalSpacing/order2",
			Eval: func(e engine.Engine) (any, error) {
				return NewEnergyModel(2).OptimalSpacing(ctx, e, 0.1, 0.3)
			},
		},
		{
			Name: "core.EnergyModel.OptimalSpacing/order4",
			Eval: func(e engine.Engine) (any, error) {
				return NewEnergyModel(4).OptimalSpacing(ctx, e, 0.1, 0.3)
			},
		},
		{
			Name: "core.EnergyModel.Sweep",
			Eval: func(e engine.Engine) (any, error) {
				// The range straddles the feasibility boundary, so the
				// index-ordered filter is actually exercised.
				return NewEnergyModel(2).Sweep(ctx, e, 0.02, 0.3, 30)
			},
		},
		{
			Name: "core.AnalyzeYield",
			Eval: func(e engine.Engine) (any, error) {
				return AnalyzeYield(ctx, e, PaperParams(), yieldSuiteSpec())
			},
		},
	})
}

// TestSerialShims pins the serial oracle onto the engine layer: each
// entry point on engine.Serial equals the word-parallel run (and both
// reject an infeasible range).
func TestSerialShims(t *testing.T) {
	ctx := context.Background()
	m := NewEnergyModel(2)
	serial, err := m.OptimalSpacing(ctx, engine.Serial, 0.1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	par, err := m.OptimalSpacing(ctx, engine.WordParallel, 0.1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if serial != par {
		t.Errorf("serial OptimalSpacing %+v vs parallel %+v", serial, par)
	}
	for _, e := range []engine.Engine{engine.Serial, engine.WordParallel} {
		if _, err := m.OptimalSpacing(ctx, e, 0.005, 0.02); err == nil {
			t.Errorf("%s: OptimalSpacing accepted an infeasible range", e.Name())
		}
	}
	rows, err := m.Sweep(ctx, engine.WordParallel, 0.11, 0.3, 8)
	if err != nil {
		t.Fatal(err)
	}
	rowsSerial, err := m.Sweep(ctx, engine.Serial, 0.11, 0.3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(rowsSerial) {
		t.Fatalf("parallel Sweep %d rows vs serial %d", len(rows), len(rowsSerial))
	}
	for i := range rows {
		if rows[i] != rowsSerial[i] {
			t.Errorf("row %d: %+v vs %+v", i, rows[i], rowsSerial[i])
		}
	}

	ySerial, err := AnalyzeYield(ctx, engine.Serial, PaperParams(), yieldSuiteSpec())
	if err != nil {
		t.Fatal(err)
	}
	y, err := AnalyzeYield(ctx, engine.WordParallel, PaperParams(), yieldSuiteSpec())
	if err != nil {
		t.Fatal(err)
	}
	if ySerial != y {
		t.Errorf("serial AnalyzeYield %+v vs parallel %+v", ySerial, y)
	}
}

// TestNilEngineMisuse: every engine-accepting entry point reports a
// nil engine as a clean error.
func TestNilEngineMisuse(t *testing.T) {
	ctx := context.Background()
	m := NewEnergyModel(2)
	if _, err := m.OptimalSpacing(ctx, nil, 0.1, 0.3); err == nil {
		t.Error("OptimalSpacing(nil) did not error")
	}
	if _, err := AnalyzeYield(ctx, nil, PaperParams(), yieldSuiteSpec()); err == nil {
		t.Error("AnalyzeYield(nil) did not error")
	}
	if _, err := m.Sweep(ctx, nil, 0.1, 0.3, 4); err == nil {
		t.Error("Sweep(nil) did not error")
	}
}
