package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/stattest"
	"repro/internal/stochastic"
)

// noisyTable builds u's decision table at sigma or fails the test.
func noisyTable(t *testing.T, u *Unit, sigma float64) *NoisyTable {
	t.Helper()
	tab, err := u.NoisyTable(sigma)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func sameWords(t *testing.T, what string, a, b *stochastic.Bitstream) {
	t.Helper()
	for w := 0; w < a.WordCount(); w++ {
		if a.Word(w) != b.Word(w) {
			t.Fatalf("%s: word %d %x vs %x", what, w, a.Word(w), b.Word(w))
		}
	}
}

func TestOneProbability(t *testing.T) {
	if OneProbability(0.6, 0.5, 0) != 1 || OneProbability(0.4, 0.5, 0) != 0 || OneProbability(0.5, 0.5, 0) != 0 {
		t.Error("sigma 0 is not the noiseless compare")
	}
	if p := OneProbability(0.5, 0.5, 0.1); p != 0.5 {
		t.Errorf("at the threshold p = %g, want 0.5", p)
	}
	// Symmetric about the threshold, and Eq. (9)'s Q at one sigma.
	hi, lo := OneProbability(0.6, 0.5, 0.1), OneProbability(0.4, 0.5, 0.1)
	if math.Abs(hi+lo-1) > 1e-15 || math.Abs(lo-0.15865525393145707) > 1e-12 {
		t.Errorf("p(+σ) = %g, p(−σ) = %g", hi, lo)
	}
}

// TestUnitEvaluateNoisyZeroNoiseMatchesEvaluate: at σ = 0 the noisy
// path must reproduce the noiseless oracle bit for bit — same
// generators, same decisions, whatever the uniforms.
func TestUnitEvaluateNoisyZeroNoiseMatchesEvaluate(t *testing.T) {
	for _, length := range []int{1, 63, 64, 65, 500} {
		for _, x := range []float64{0, 0.3, 0.8, 1} {
			serial := paperUnit(t, 7)
			noisy := paperUnit(t, 7)
			_, bs := serial.Evaluate(x, length)
			bn, err := noisy.EvaluateNoisy(x, length, noisyTable(t, noisy, 0), stochastic.NewSplitMix64(9))
			if err != nil {
				t.Fatal(err)
			}
			sameWords(t, fmt.Sprintf("len %d x=%g", length, x), bs, bn)
		}
	}
}

// TestUnitEvaluateNoisyMatchesStepNoisy: the word path and the
// bit-serial oracle consume the same uniform stream and emit the same
// bits on a noisy channel.
func TestUnitEvaluateNoisyMatchesStepNoisy(t *testing.T) {
	for _, length := range []int{1, 63, 64, 65, 500} {
		serialU, packedU := paperUnit(t, 11), paperUnit(t, 11)
		sigma := serialU.ThresholdMW() / 2 // noise flips many decisions
		serialTab, packedTab := noisyTable(t, serialU, sigma), noisyTable(t, packedU, sigma)
		serialSrc, packedSrc := stochastic.NewSplitMix64(5), stochastic.NewSplitMix64(5)
		want := stochastic.NewBitstream(length)
		for i := 0; i < length; i++ {
			want.Set(i, serialU.StepNoisy(0.6, serialTab, serialSrc).Bit)
		}
		got, err := packedU.EvaluateNoisy(0.6, length, packedTab, packedSrc)
		if err != nil {
			t.Fatal(err)
		}
		sameWords(t, fmt.Sprintf("len %d", length), want, got)
		if serialSrc.NextUint64() != packedSrc.NextUint64() {
			t.Fatalf("len %d: paths consumed different numbers of uniforms", length)
		}
	}
}

// hideTables drops the circuit's power table (NewUnit has built it
// to calibrate the threshold), forcing the noisy evaluators onto the
// enumeration fallback used beyond maxTableOrder.
func hideTables(u *Unit) {
	u.Circuit.powOnce.Do(func() {})
	u.Circuit.powers = nil
}

// TestUnitEvaluateNoisySeededFallbackMatchesPacked pins the
// cache-free serial fallback (used beyond maxTableOrder) to the
// packed noisy path on a tabulatable order, so the two
// implementations cannot drift.
func TestUnitEvaluateNoisySeededFallbackMatchesPacked(t *testing.T) {
	u := paperUnit(t, 17)
	fresh := paperUnit(t, 17)
	hideTables(fresh)
	sigma := u.ThresholdMW() // noise comparable to the decision level
	tab, freshTab := noisyTable(t, u, sigma), noisyTable(t, fresh, sigma)
	if tab.thr == nil || freshTab.thr != nil {
		t.Fatal("want a tabulated and an untabulated decision table")
	}
	for i, x := range []float64{0, 0.4, 1} {
		seed := stochastic.DeriveSeed(99, i)
		packed, err := u.EvaluateNoisySeeded(seed, seed+1, x, 257, tab)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := fresh.EvaluateNoisySeeded(seed, seed+1, x, 257, freshTab)
		if err != nil {
			t.Fatal(err)
		}
		if packed != serial {
			t.Errorf("x=%g: packed %g vs serial fallback %g", x, packed, serial)
		}
	}
}

// TestUnitEvaluateNoisyFallbackMatchesPacked does the same for the
// generator-advancing EvaluateNoisy.
func TestUnitEvaluateNoisyFallbackMatchesPacked(t *testing.T) {
	packedU := paperUnit(t, 23)
	serialU := paperUnit(t, 23)
	hideTables(serialU)
	sigma := packedU.ThresholdMW()
	bp, err := packedU.EvaluateNoisy(0.6, 193, noisyTable(t, packedU, sigma), stochastic.NewSplitMix64(5))
	if err != nil {
		t.Fatal(err)
	}
	bsr, err := serialU.EvaluateNoisy(0.6, 193, noisyTable(t, serialU, sigma), stochastic.NewSplitMix64(5))
	if err != nil {
		t.Fatal(err)
	}
	sameWords(t, "fallback", bp, bsr)
}

// TestNoisyOneRatesMatchTable is the distribution check of the
// decision kernel: run a long noisy stream, recover each cycle's
// optical state from a twin unit's decoded cycles (same generators,
// so the same states), and compare the one-rate of every (weight,
// zmask) state with the table's P(bit = 1) under the binomial bound.
func TestNoisyOneRatesMatchTable(t *testing.T) {
	const length = 1 << 17
	u, twin := paperUnit(t, 31), paperUnit(t, 31)
	sigma := u.ThresholdMW() / 3
	bits, err := u.EvaluateNoisy(0.5, length, noisyTable(t, u, sigma), stochastic.NewSplitMix64(77))
	if err != nil {
		t.Fatal(err)
	}
	pow := twin.powerTable()
	ones := make([]int, len(pow))
	seen := make([]int, len(pow))
	if err := twin.Cycles(0.5, length, func(i, weight, zmask int, _ float64) {
		k := twin.Circuit.PowerIndex(weight, zmask)
		seen[k]++
		ones[k] += bits.Get(i)
	}); err != nil {
		t.Fatal(err)
	}
	n1 := twin.Circuit.P.Order + 1
	states, intermediate := 0, 0
	for k, n := range seen {
		if n == 0 {
			continue
		}
		states++
		p := OneProbability(pow[k], u.ThresholdMW(), sigma)
		if p > 1e-3 && p < 1-1e-3 {
			intermediate++
		}
		stattest.Check(t, fmt.Sprintf("state weight %d zmask %b", k>>n1, k&(1<<n1-1)), ones[k], n, p)
	}
	if states < 12 || intermediate < 4 {
		t.Errorf("only %d states visited, %d with an uncertain decision: the check lacks teeth", states, intermediate)
	}
}

func TestUnitEvaluateNoisyValidation(t *testing.T) {
	u := paperUnit(t, 3)
	tab := noisyTable(t, u, 0.1)
	src := stochastic.NewSplitMix64(1)
	if _, err := u.EvaluateNoisy(0.5, 0, tab, src); err == nil {
		t.Error("length 0 accepted")
	}
	if _, err := u.EvaluateNoisy(0.5, -4, tab, src); err == nil {
		t.Error("negative length accepted")
	}
	if _, err := u.EvaluateNoisy(0.5, 16, nil, src); err == nil {
		t.Error("nil table accepted")
	}
	if _, err := u.EvaluateNoisy(0.5, 16, tab, nil); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := u.EvaluateNoisy(0.5, 16, noisyTable(t, paperUnit(t, 3), 0.1), src); err == nil {
		t.Error("another circuit's table accepted")
	}
	if _, err := u.EvaluateNoisySeeded(1, 2, 0.5, 0, tab); err == nil {
		t.Error("seeded length 0 accepted")
	}
	if _, err := u.EvaluateNoisySeeded(1, 2, 0.5, 16, nil); err == nil {
		t.Error("seeded nil table accepted")
	}
	for _, sigma := range []float64{-0.1, math.NaN(), math.Inf(1)} {
		if _, err := u.NoisyTable(sigma); err == nil {
			t.Errorf("sigma %g accepted", sigma)
		}
	}
}
