package stattest

import (
	"fmt"
	"math"
	"testing"
)

// binomialPMF returns P(X = k) for X ~ Binomial(n, p), through
// log-gamma so it stays finite at large n.
func binomialPMF(n, k int, p float64) float64 {
	lg := func(x float64) float64 { v, _ := math.Lgamma(x); return v }
	logC := lg(float64(n+1)) - lg(float64(k+1)) - lg(float64(n-k+1))
	return math.Exp(logC + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
}

// TestBoundsHoldExactly sums the exact binomial tails outside each
// interval: the mass a correct simulator can land outside must not
// exceed the stated false-failure rate, and the interval must hold
// the mean.
func TestBoundsHoldExactly(t *testing.T) {
	for _, c := range []struct {
		n     int
		p     float64
		alpha float64
	}{
		{1000, 0.5, 1e-2},
		{1000, 0.01, 1e-2},
		{20_000, 1e-3, 1e-6},
		{200_000, 1e-2, 1e-6},
		{300_000, 1e-4, 1e-6},
		{50, 0.9, 1e-3},
	} {
		lo, hi := BinomialBounds(c.n, c.p, c.alpha)
		mean := float64(c.n) * c.p
		if float64(lo) > mean || float64(hi) < mean {
			t.Errorf("n=%d p=%g: [%d, %d] misses the mean %g", c.n, c.p, lo, hi, mean)
		}
		outside := 0.0
		for k := 0; k <= c.n; k++ {
			if k < lo || k > hi {
				outside += binomialPMF(c.n, k, c.p)
			}
		}
		if outside > c.alpha {
			t.Errorf("n=%d p=%g: %g of the mass outside [%d, %d], want <= %g", c.n, c.p, outside, lo, hi, c.alpha)
		}
		// Not vacuous: the interval is within a few binomial standard
		// deviations of the mean, not the whole range.
		sd := math.Sqrt(mean * (1 - c.p))
		if mean > 25 && (mean-float64(lo) > 7*sd || float64(hi)-mean > 7*sd) {
			t.Errorf("n=%d p=%g: [%d, %d] wider than 7σ (σ = %.3g)", c.n, c.p, lo, hi, sd)
		}
	}
}

// TestBoundsDegenerate pins the edge cases: certain outcomes admit
// only the certain count, and a vanishing rate admits no events.
func TestBoundsDegenerate(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		lo, hi int
	}{
		{0, 0.5, 0, 0},
		{100, 0, 0, 0},
		{100, 1, 100, 100},
		{50_000, 1e-30, 0, 0},
		{50_000, 1 - 1e-30, 50_000, 50_000},
	} {
		lo, hi := BinomialBounds(c.n, c.p, FalseFailureRate)
		if lo != c.lo || hi != c.hi {
			t.Errorf("n=%d p=%g: [%d, %d], want [%d, %d]", c.n, c.p, lo, hi, c.lo, c.hi)
		}
	}
}

// recorder is a TB that captures failures instead of reporting them.
type recorder struct{ failed []string }

func (r *recorder) Helper() {}
func (r *recorder) Errorf(format string, args ...any) {
	r.failed = append(r.failed, fmt.Sprintf(format, args...))
}

// TestCheckHasTeeth: the check accepts the expected count and rejects
// a count off by a factor that a hand tolerance of 2 would have let
// through at high count.
func TestCheckHasTeeth(t *testing.T) {
	var r recorder
	if !Check(&r, "mean", 2000, 200_000, 1e-2) || len(r.failed) != 0 {
		t.Fatalf("expected count rejected: %v", r.failed)
	}
	if Check(&r, "30% high", 2600, 200_000, 1e-2) || len(r.failed) != 1 {
		t.Fatalf("30%% excess accepted: %v", r.failed)
	}
}

func TestCount(t *testing.T) {
	if k, err := Count(1234.0/200_000, 200_000); err != nil || k != 1234 {
		t.Errorf("Count = %d, %v", k, err)
	}
	for _, rate := range []float64{-0.1, 1.5, 0.5 / 7} {
		if k, err := Count(rate, 10); err == nil {
			t.Errorf("Count(%g, 10) = %d, want error", rate, k)
		}
	}
}
