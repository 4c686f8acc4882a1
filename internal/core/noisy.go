package core

import (
	"fmt"
	"math"

	"repro/internal/stochastic"
)

// This file is the noise-aware counterpart of the packed engine in
// batch.go. With additive Gaussian received-power noise of deviation
// σ, the OOK decision of a cycle is a Bernoulli draw: the detector
// output exceeds the threshold with probability
//
//	P(bit = 1) = Q((threshold − power)/σ) = ½·erfc((threshold − power)/(σ√2)),
//
// and the received power is a pure function of (weight, z-mask). So
// a decided bit never needs the noise sample itself — only one uniform
// compared against that probability. NoisyTable tabulates it once per
// σ as 53-bit comparator thresholds (stochastic.ProbThreshold, so p is
// quantized up to a multiple of 2^-53), and every noisy evaluator
// decides a cycle with one SplitMix64 draw: k = NextUint64()>>11 gives
// bit 1 iff k < threshold. 64 noisy cycles collapse to SNG words, the
// carry-save weight tree, a table lookup and one branchless compare
// per bit. The bit-serial StepNoisy consumes the same uniform stream
// in cycle order, so the packed path emits bitstreams identical to it.
// Paths that observe the analog detector value (internal/transient's
// Trace and MeasureEye) still draw Gaussian samples.

// OneProbability returns the probability that a cycle with received
// power receivedMW decides 1 against thresholdMW under additive
// Gaussian noise of deviation sigmaMW: Q((threshold − received)/σ).
// σ = 0 is the noiseless compare, received > threshold.
func OneProbability(receivedMW, thresholdMW, sigmaMW float64) float64 {
	if sigmaMW == 0 {
		if receivedMW > thresholdMW {
			return 1
		}
		return 0
	}
	return 0.5 * math.Erfc((thresholdMW-receivedMW)/(sigmaMW*math.Sqrt2))
}

// NoisyTable is a unit's OOK decision under additive Gaussian
// received-power noise of one σ, reduced to what a decided bit needs:
// for every optical state, the 53-bit comparator threshold of
// OneProbability. It is built once per σ (Unit.NoisyTable), is
// immutable, and is shared by every unit on the same circuit.
type NoisyTable struct {
	c           *Circuit
	thresholdMW float64
	sigmaMW     float64
	// thr[Circuit.PowerIndex(weight, zmask)] is the state's comparator
	// threshold; nil beyond maxTableOrder, where threshold computes it
	// per cycle from the enumerated power.
	thr []uint64
}

// NoisyTable builds the decision table for noise deviation sigmaMW
// (in mW, finite and >= 0; 0 is the noiseless channel) on the unit's
// circuit and calibrated threshold.
func (u *Unit) NoisyTable(sigmaMW float64) (*NoisyTable, error) {
	if !(sigmaMW >= 0) || math.IsInf(sigmaMW, 1) {
		return nil, fmt.Errorf("core: noise sigma %g mW, need finite and >= 0", sigmaMW)
	}
	tab := &NoisyTable{c: u.Circuit, thresholdMW: u.thresholdMW, sigmaMW: sigmaMW}
	if pow := u.powerTable(); pow != nil {
		tab.thr = make([]uint64, len(pow))
		for i, p := range pow {
			tab.thr[i] = stochastic.ProbThreshold(OneProbability(p, u.thresholdMW, sigmaMW))
		}
	}
	return tab, nil
}

// threshold returns the comparator threshold of a cycle: the table
// entry, or for untabulated orders the same function of the
// (bit-identical) enumerated power.
func (t *NoisyTable) threshold(weight, zmask int, receivedMW float64) uint64 {
	if t.thr != nil {
		return t.thr[t.c.PowerIndex(weight, zmask)]
	}
	return stochastic.ProbThreshold(OneProbability(receivedMW, t.thresholdMW, t.sigmaMW))
}

// check rejects a missing table or source, or a table built for
// another circuit.
func (u *Unit) checkNoisy(tab *NoisyTable, src *stochastic.SplitMix64) error {
	if tab == nil || src == nil {
		return fmt.Errorf("core: noisy evaluation needs a NoisyTable and a uniform source")
	}
	if tab.c != u.Circuit {
		return fmt.Errorf("core: NoisyTable built for another circuit")
	}
	return nil
}

// decide draws one uniform from src and returns 1 with the
// probability thr encodes — branchless, as k < thr iff k − thr wraps.
func decide(src *stochastic.SplitMix64, thr uint64) int {
	return int((src.NextUint64()>>11 - thr) >> 63)
}

// powerTable returns the circuit's shared received-power table (see
// Circuit.PowerTable) — one tabulation serves the serial Step lookups,
// both packed engines and every analysis consumer. Returns nil for
// orders too large to tabulate.
func (u *Unit) powerTable() []float64 {
	return u.Circuit.PowerTable()
}

// StepNoisy runs one noisy clock cycle at input probability x: Step's
// cycle with the decision drawn from tab with one uniform of src. It
// is the bit-serial oracle of EvaluateNoisy; the table must be the
// unit's circuit's.
func (u *Unit) StepNoisy(x float64, tab *NoisyTable, src *stochastic.SplitMix64) StepResult {
	r := u.Step(x, 0)
	zmask := 0
	for i, z := range r.Z {
		zmask |= z << i
	}
	r.Bit = decide(src, tab.threshold(r.Weight, zmask, r.ReceivedMW))
	return r
}

// evalPackedNoisy runs `length` noisy cycles of the word-parallel
// datapath with the given generators and decision table, 64 cycles per
// iteration: draw and decode one packed word (the scaffolding shared
// with evalPacked), then decide each cycle with one uniform of src.
func (u *Unit) evalPackedNoisy(thr []uint64, data, coef []*stochastic.SNG, x float64, length int, src *stochastic.SplitMix64) *stochastic.Bitstream {
	n := u.Circuit.P.Order
	out := stochastic.NewBitstream(length)
	var planes []uint64
	coefWords := make([]uint64, n+1)
	var weights, zmasks [64]int
	for w := 0; w < out.WordCount(); w++ {
		nbits := out.WordBits(w)
		planes = u.drawWord(data, coef, x, nbits, planes, coefWords)
		decodeCycles(planes, coefWords, nbits, &weights, &zmasks)
		var word uint64
		for t := 0; t < nbits; t++ {
			k := src.NextUint64() >> 11
			word |= (k - thr[u.Circuit.PowerIndex(weights[t], zmasks[t])]) >> 63 << uint(t)
		}
		out.SetWord(w, word)
	}
	return out
}

// EvaluateNoisy runs `length` noisy cycles at input x and returns the
// raw output stream, deciding each cycle from tab with one uniform of
// src in cycle order. It advances the unit's generators as Evaluate
// does and src exactly as `length` StepNoisy calls would, emitting the
// identical bitstream; orders beyond maxTableOrder run that serial
// path.
func (u *Unit) EvaluateNoisy(x float64, length int, tab *NoisyTable, src *stochastic.SplitMix64) (*stochastic.Bitstream, error) {
	if length <= 0 {
		return nil, fmt.Errorf("core: stream length %d, need >= 1", length)
	}
	if err := u.checkNoisy(tab, src); err != nil {
		return nil, err
	}
	if tab.thr != nil {
		return u.evalPackedNoisy(tab.thr, u.dataSNG, u.coefSNG, x, length, src), nil
	}
	out := stochastic.NewBitstream(length)
	for t := 0; t < length; t++ {
		out.Set(t, u.StepNoisy(x, tab, src).Bit)
	}
	return out, nil
}

// EvaluateNoisySeeded evaluates one noisy input with fresh generators:
// SNGs derived from unitSeed and a decision stream
// SplitMix64(noiseSeed) — the reproducible per-trial unit of work
// behind transient batch evaluation. The shared state it reads (power
// and decision tables, threshold) is immutable, so it may be called
// concurrently. Falls back to a cache-free serial walk for orders too
// large to tabulate.
func (u *Unit) EvaluateNoisySeeded(unitSeed, noiseSeed uint64, x float64, length int, tab *NoisyTable) (float64, error) {
	if length <= 0 {
		return 0, fmt.Errorf("core: stream length %d, need >= 1", length)
	}
	src := stochastic.NewSplitMix64(noiseSeed)
	if err := u.checkNoisy(tab, src); err != nil {
		return 0, err
	}
	data, coef := seededSNGs(u.Circuit.P.Order, unitSeed)
	if tab.thr != nil {
		return u.evalPackedNoisy(tab.thr, data, coef, x, length, src).Value(), nil
	}
	return u.walkSeeded(data, coef, x, length, tab, src), nil
}

// walkSeeded is the cache-free bit-serial fallback shared by the
// batch evaluators for orders beyond maxTableOrder: enumerate the
// circuit per cycle and decide. A nil tab is the noiseless channel
// (threshold compare, src unused); otherwise each cycle draws one
// uniform of src, as the packed path does.
func (u *Unit) walkSeeded(data, coef []*stochastic.SNG, x float64, length int, tab *NoisyTable, src *stochastic.SplitMix64) float64 {
	if length <= 0 {
		return 0
	}
	n := u.Circuit.P.Order
	z := make([]int, n+1)
	ones := 0
	for t := 0; t < length; t++ {
		weight := 0
		for i := 0; i < n; i++ {
			weight += data[i].NextBit(x)
		}
		zmask := 0
		for i := range z {
			z[i] = coef[i].NextBit(u.Poly.Coef[i])
			zmask |= z[i] << i
		}
		power := u.Circuit.ReceivedPowerMW(weight, z)
		if tab == nil {
			if power > u.thresholdMW {
				ones++
			}
			continue
		}
		ones += decide(src, tab.threshold(weight, zmask, power))
	}
	return float64(ones) / float64(length)
}
