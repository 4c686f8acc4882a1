package transient

import (
	"context"
	"repro/internal/engine"
	"testing"

	"repro/internal/core"
)

func TestBERWaterfallTracksAnalytic(t *testing.T) {
	base := core.PaperParams()
	// Power range spanning BER ~1e-1 down to ~1e-4: measurable with
	// 3e5 bits.
	c := core.MustCircuit(base)
	p1 := c.MinProbePowerMW(1e-1)
	p4 := c.MinProbePowerMW(1e-4)
	powers := []float64{p1, (p1 + p4) / 2, p4}
	pts, err := BERWaterfall(context.Background(), engine.WordParallel, base, powers, 300_000, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	for i, p := range pts {
		if p.AnalyticBER <= 0 {
			t.Fatalf("point %d: analytic %g", i, p.AnalyticBER)
		}
		// Measured within a factor 2 of analytic wherever statistics
		// are meaningful (>= ~30 expected errors).
		if p.AnalyticBER*300_000 > 30 {
			ratio := p.MeasuredBER / p.AnalyticBER
			if ratio < 0.5 || ratio > 2 {
				t.Errorf("point %d (%.4f mW): measured %g vs analytic %g", i, p.ProbeMW, p.MeasuredBER, p.AnalyticBER)
			}
		}
		// More power, fewer errors.
		if i > 0 && p.AnalyticBER >= pts[i-1].AnalyticBER {
			t.Errorf("analytic BER not decreasing at %d", i)
		}
	}
	if pts[0].String() == "" {
		t.Error("empty String()")
	}
}

func TestBERWaterfallErrors(t *testing.T) {
	base := core.PaperParams()
	if _, err := BERWaterfall(context.Background(), engine.WordParallel, base, []float64{1}, 0, 1); err == nil {
		t.Error("zero bits accepted")
	}
	if _, err := BERWaterfall(context.Background(), engine.WordParallel, base, []float64{-1}, 100, 1); err == nil {
		t.Error("negative power accepted")
	}
	bad := base
	bad.Order = 0
	if _, err := BERWaterfall(context.Background(), engine.WordParallel, bad, []float64{1}, 100, 1); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestBERWaterfallAgainstEq9RoundTrip(t *testing.T) {
	// Sizing the probe for a target with Eq. (9) and then measuring
	// at exactly that power recovers the target (the §V.B design
	// loop closed end to end). The worst-case pattern-pair BER the
	// simulator measures is slightly pessimistic relative to the
	// Eq. (8) margin (simultaneous vs one-hot crosstalk), so allow a
	// one-sided band.
	base := core.PaperParams()
	c := core.MustCircuit(base)
	target := 1e-2
	power := c.MinProbePowerMW(target)
	pts, err := BERWaterfall(context.Background(), engine.WordParallel, base, []float64{power}, 400_000, 23)
	if err != nil {
		t.Fatal(err)
	}
	got := pts[0].MeasuredBER
	if got < target/3 || got > target*4 {
		t.Errorf("measured %g at power sized for %g", got, target)
	}
}
