package transient

import (
	"fmt"
	"testing"

	"repro/internal/numeric"
	"repro/internal/stattest"
	"repro/internal/stochastic"
)

// This file justifies the Bernoulli decision kernel statistically: a
// decided bit drawn as one uniform against Q(margin/σ) must be
// distributed exactly as the Gaussian-plus-compare it replaced. The
// references below are that replaced path, kept for the tests only.

// gaussianWorstCaseErrors is the reference worst-case BER measurement:
// each slot draws a Gaussian noise sample, adds it to the transmitted
// pattern's level and compares with the midpoint threshold.
func gaussianWorstCaseErrors(s *Simulator, bits int, seed uint64) int {
	oneLevel, zeroLevel, threshold := s.worstCasePair()
	g := NewGaussian(stochastic.NewSplitMix64(seed))
	errs := 0
	for t := 0; t < bits; t++ {
		level, want := oneLevel, 1
		if t%2 != 0 {
			level, want = zeroLevel, 0
		}
		got := 0
		if level+g.NextScaled(s.SigmaMW) > threshold {
			got = 1
		}
		if got != want {
			errs++
		}
	}
	return errs
}

// TestDecisionKernelMatchesGaussianReference sets the noise so the
// worst-case pattern pair errs at p ≈ 1e-1, 1e-2 and 1e-3, then checks
// the kernel's error count and the Gaussian reference's against
// Eq. (9), and against each other: over equal slot counts, given the
// total k1+k2, k1 is Binomial(k1+k2, ½) exactly when the two rates
// agree.
func TestDecisionKernelMatchesGaussianReference(t *testing.T) {
	const bits = 400_000
	for i, target := range []float64{1e-1, 1e-2, 1e-3} {
		s := newTestSim(t, 0, 120+uint64(i))
		one, zero, _ := s.worstCasePair()
		s.SigmaMW = (one - zero) / (2 * numeric.QFuncInv(target))
		p := s.AnalyticWorstCaseBER()

		measured, err := s.MeasureWorstCaseBER(bits)
		if err != nil {
			t.Fatal(err)
		}
		kernel, err := stattest.Count(measured, bits)
		if err != nil {
			t.Fatal(err)
		}
		ref := gaussianWorstCaseErrors(s, bits, 900+uint64(i))
		stattest.Check(t, fmt.Sprintf("p=%g kernel errors vs Eq. (9)", target), kernel, bits, p)
		stattest.Check(t, fmt.Sprintf("p=%g Gaussian errors vs Eq. (9)", target), ref, bits, p)
		stattest.Check(t, fmt.Sprintf("p=%g kernel share of kernel+Gaussian errors", target), kernel, kernel+ref, 0.5)
	}
}

// TestNoisyDatapathMatchesGaussianReference runs the unit's noisy
// datapath twice over the same optical states (equal unit seeds, so
// equal SNG streams): once through the decision kernel
// (EvaluateWords) and once as Gaussian-plus-compare (core.Unit.Step
// with a Gaussian noise sample). Per cycle the two bits are
// independent draws that must share the probability of flipping the
// noiseless decision, so among the cycles where exactly one of them
// flipped it, the kernel is the one half the time: a sign test. (Sign
// by error, not by one: noise pulls '1' and '0' states toward ½ in
// opposite directions, so a one-count test would cancel.)
func TestNoisyDatapathMatchesGaussianReference(t *testing.T) {
	const length = 1 << 16
	for _, scale := range []float64{1, 2, 4} {
		// A simulator seed away from the unit's: hotSim seeds the
		// simulator with unitSeed+1, which is also data SNG 0's seed,
		// and shared uniforms would correlate decisions with states.
		ref := hotSim(t, 44)
		kernel := NewSimulator(hotSim(t, 44).Unit, 0x5EED)
		kernel.SigmaMW *= scale
		_, got, err := kernel.EvaluateWords(0.5, length)
		if err != nil {
			t.Fatal(err)
		}
		// Independent of both the unit's and the kernel's streams.
		g := NewGaussian(stochastic.NewSplitMix64(4545))
		threshold := ref.Unit.ThresholdMW()
		onlyKernel, onlyRef := 0, 0
		for i := 0; i < length; i++ {
			r := ref.Unit.Step(0.5, g.NextScaled(kernel.SigmaMW))
			clean := 0
			if r.ReceivedMW > threshold {
				clean = 1
			}
			switch k := got.Get(i); {
			case k != clean && r.Bit == clean:
				onlyKernel++
			case k == clean && r.Bit != clean:
				onlyRef++
			}
		}
		if onlyKernel+onlyRef < 30 {
			t.Fatalf("σ×%g: %d one-sided flips, too few for the test to bite", scale, onlyKernel+onlyRef)
		}
		stattest.Check(t, fmt.Sprintf("σ×%g kernel share of one-sided flips", scale), onlyKernel, onlyKernel+onlyRef, 0.5)
	}
}
