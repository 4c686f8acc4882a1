package transient

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/stattest"
)

func TestBERWaterfallTracksAnalytic(t *testing.T) {
	base := core.PaperParams()
	// Power range spanning BER ~1e-1 down to ~1e-4: measurable with
	// 3e5 bits.
	const bits = 300_000
	c := core.MustCircuit(base)
	p1 := c.MinProbePowerMW(1e-1)
	p4 := c.MinProbePowerMW(1e-4)
	powers := []float64{p1, (p1 + p4) / 2, p4}
	pts, err := BERWaterfall(context.Background(), engine.WordParallel, base, powers, bits, 17)
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
		// The measured error count sits inside the binomial bound
		// around the Eq. (9) rate at every point; the bound tightens
		// to the handful of errors a deep point allows by itself.
		errs, err := stattest.Count(p.MeasuredBER, bits)
		if err != nil {
			t.Fatal(err)
		}
		stattest.Check(t, fmt.Sprintf("point %d (%.4f mW) errors", i, p.ProbeMW), errs, bits, p.AnalyticBER)
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
