package transient

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/stochastic"
)

// Simulator runs the optical SC unit bit slot by bit slot with
// additive Gaussian detector noise.
type Simulator struct {
	Unit *core.Unit
	// SigmaMW is the received-power noise standard deviation,
	// i_n/R expressed in mW (see package doc).
	SigmaMW float64

	// seed is the base seed the batch evaluators derive per-trial
	// randomness from; the serial stream is seeded from it too.
	seed uint64
	// src is the simulator's sequential uniform stream: a noisy
	// decision draws one value from it. noise is its Gaussian view
	// (Box–Muller over the same source), drawn by the paths that
	// observe the analog detector value (Trace, MeasureEye).
	src   *stochastic.SplitMix64
	noise *Gaussian
}

// NewSimulator wraps a unit, deriving the noise level from the
// circuit's photodetector.
func NewSimulator(u *core.Unit, seed uint64) *Simulator {
	det := u.Circuit.P.Detector
	sigma := det.NoiseCurrentA / det.ResponsivityAPerW * 1e3 // A/(A/W) = W -> mW
	src := stochastic.NewSplitMix64(seed)
	return &Simulator{
		Unit:    u,
		SigmaMW: sigma,
		seed:    seed,
		src:     src,
		noise:   NewGaussian(src),
	}
}

// Evaluate runs `length` noisy cycles bit-serially (core.Unit.StepNoisy,
// one uniform of the simulator's stream per decision, against the
// decision table of the SigmaMW in force) and de-randomizes the
// output. It is the oracle for EvaluateWords; a non-positive length
// is an error (an empty bitstream has no defined value).
func (s *Simulator) Evaluate(x float64, length int) (float64, *stochastic.Bitstream, error) {
	if length <= 0 {
		return 0, nil, fmt.Errorf("transient: stream length %d, need >= 1", length)
	}
	tab, err := s.Unit.NoisyTable(s.SigmaMW)
	if err != nil {
		return 0, nil, err
	}
	out := stochastic.NewBitstream(length)
	for t := 0; t < length; t++ {
		out.Set(t, s.Unit.StepNoisy(x, tab, s.src).Bit)
	}
	return out.Value(), out, nil
}

// EvaluateWords is Evaluate through the word-parallel noisy datapath
// (core.Unit.EvaluateNoisy): SNG words, the carry-save weight tree and
// one decision-table compare per cycle, 64 cycles per inner iteration.
// It advances the unit's generators and the simulator's uniform stream
// exactly as Evaluate does and emits an identical bitstream.
func (s *Simulator) EvaluateWords(x float64, length int) (float64, *stochastic.Bitstream, error) {
	if length <= 0 {
		return 0, nil, fmt.Errorf("transient: stream length %d, need >= 1", length)
	}
	tab, err := s.Unit.NoisyTable(s.SigmaMW)
	if err != nil {
		return 0, nil, err
	}
	out, err := s.Unit.EvaluateNoisy(x, length, tab, s.src)
	if err != nil {
		return 0, nil, err
	}
	return out.Value(), out, nil
}

// noiseSalt separates the per-trial noise seed stream from the
// per-trial SNG seed stream in trialSeeds.
const noiseSalt = 0x9D5C0F6B42A1E37D

// trialSeeds derives batch trial i's unit-generator seed and noise
// seed from the simulator's base seed, via stochastic.DeriveSeed on
// two salted streams. Trial i's randomness depends on (base, i) only,
// which is what makes batch results scheduling-independent.
func trialSeeds(base uint64, i int) (unitSeed, noiseSeed uint64) {
	return stochastic.DeriveSeed(base, i), stochastic.DeriveSeed(base^noiseSalt, i)
}

// EvaluateBatch evaluates every input with a fresh `length`-bit noisy
// stream, one work item per input dispatched on the given engine.
// Trial i runs with SNGs and a decision stream seeded from the
// simulator's seed and i only (trialSeeds), against one decision table
// built for the call, so the result is bit-identical on every
// conforming engine and reproducible on any core count — it matches a
// serial walk of core.NewUnit(..., unitSeed) StepNoisy calls fed from
// the trial's own SplitMix64(noiseSeed). The simulator's shared state
// (unit tables, SigmaMW, seed) is only read: EvaluateBatch does not
// advance the serial stream and may itself be called concurrently. A
// nil engine is an error; if several trials fail, the error of the
// lowest failing index is returned. A fired ctx stops the fan-out at a
// trial boundary and surfaces a *engine.Partial instead of values.
func (s *Simulator) EvaluateBatch(ctx context.Context, e engine.Engine, xs []float64, length int) ([]float64, error) {
	if length <= 0 {
		return nil, fmt.Errorf("transient: stream length %d, need >= 1", length)
	}
	tab, err := s.Unit.NoisyTable(s.SigmaMW)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(xs))
	errs := make([]error, len(xs))
	if err := engine.RunPartial(ctx, e, len(xs), func(i int) {
		unitSeed, noiseSeed := trialSeeds(s.seed, i)
		out[i], errs[i] = s.Unit.EvaluateNoisySeeded(unitSeed, noiseSeed, xs[i], length, tab)
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// worstCasePair returns the worst channel's Eq. (8) one/zero pattern
// levels and the midpoint decision threshold shared by the measured
// and analytic worst-case BER.
func (s *Simulator) worstCasePair() (oneLevel, zeroLevel, threshold float64) {
	c := s.Unit.Circuit
	n := c.P.Order
	_, worst := c.WorstCaseDelta()

	onePattern := make([]int, n+1)
	onePattern[worst] = 1
	zeroPattern := make([]int, n+1)
	for i := range zeroPattern {
		if i != worst {
			zeroPattern[i] = 1
		}
	}
	oneLevel = c.ReceivedPowerMW(worst, onePattern)
	zeroLevel = c.ReceivedPowerMW(worst, zeroPattern)
	// The decision threshold for this channel pair sits midway
	// between the pair's own levels, as the analytic SNR assumes.
	threshold = (oneLevel + zeroLevel) / 2
	return oneLevel, zeroLevel, threshold
}

// MeasureWorstCaseBER transmits the worst-case signal/crosstalk
// patterns of Eq. (8) and returns the observed bit-error rate. Even
// slots carry the worst channel's '1' pattern (only z_worst set); odd
// slots carry its '0' pattern (every other coefficient set,
// maximizing crosstalk). A non-positive slot count is an error, and
// an odd count is rounded up so the two patterns are transmitted
// equally often.
//
// Both patterns sit Δ/2 from the midpoint threshold, so every slot
// errs with the same probability p = Q(Δ/2σ) = ½·erfc(Δ/(2√2·σ)):
// the measurement decides errors directly, one uniform of the
// simulator's stream per slot compared against p
// (stochastic.FillPlane, 64 slots per word), and counts them with
// stochastic.PlaneOnes. It converges to the analytical Eq. (9) BER of
// the circuit, and is exactly binomial around it.
func (s *Simulator) MeasureWorstCaseBER(bits int) (float64, error) {
	if bits <= 0 {
		return 0, fmt.Errorf("transient: BER measurement needs bits >= 1, got %d", bits)
	}
	if !(s.SigmaMW >= 0) || math.IsInf(s.SigmaMW, 1) {
		return 0, fmt.Errorf("transient: noise sigma %g mW, need finite and >= 0", s.SigmaMW)
	}
	if bits%2 != 0 {
		bits++ // balance the even/odd pattern split
	}
	_, zeroLevel, threshold := s.worstCasePair()
	p := core.OneProbability(zeroLevel, threshold, s.SigmaMW)

	var plane [64]uint64
	const block = 64 * len(plane)
	errors := 0
	for t := 0; t < bits; t += block {
		nb := min(block, bits-t)
		stochastic.FillPlane(s.src, p, nb, plane[:])
		errors += stochastic.PlaneOnes(plane[:stochastic.WordsFor(nb)])
	}
	return float64(errors) / float64(bits), nil
}

// AnalyticWorstCaseBER returns the Eq. (9) prediction for the same
// worst-case pattern pair measured by MeasureWorstCaseBER: the level
// separation over the noise sigma, halved for the midpoint threshold.
func (s *Simulator) AnalyticWorstCaseBER() float64 {
	oneLevel, zeroLevel, _ := s.worstCasePair()
	snr := (oneLevel - zeroLevel) / s.SigmaMW
	if snr <= 0 {
		return 0.5
	}
	return 0.5 * math.Erfc(snr/(2*math.Sqrt2))
}

// AccuracyPoint is one sample of the throughput–accuracy trade-off.
type AccuracyPoint struct {
	// StreamLen is the stochastic stream length (bits per result).
	StreamLen int
	// RMSE is the root-mean-square error of the de-randomized result
	// against the analytic polynomial value, over `trials` runs.
	RMSE float64
	// ThroughputResultsPerSec is the resulting output rate at the
	// circuit's bit rate.
	ThroughputResultsPerSec float64
}

// accuracySalt separates the per-trial seed streams of
// AccuracyVsLength from the EvaluateBatch trial streams derived from
// the same simulator seed.
const accuracySalt = 0x3C79AC492BA7B653

// accuracyLengths filters the usable stream lengths, preserving order
// — non-positive entries are skipped (they have no defined value).
// Both AccuracyVsLength paths index their per-trial seeds against this
// filtered list, so skipped entries do not shift the seed streams.
func accuracyLengths(lengths []int) []int {
	out := make([]int, 0, len(lengths))
	for _, l := range lengths {
		if l >= 1 {
			out = append(out, l)
		}
	}
	return out
}

// accuracyReduce folds per-trial squared errors (flat, trial-major
// within each length) into the RMSE points, summing in trial order —
// the shared reduction that keeps the fanned-out and serial paths
// bit-identical.
func (s *Simulator) accuracyReduce(valid []int, trials int, sq []float64) []AccuracyPoint {
	out := make([]AccuracyPoint, len(valid))
	for li, l := range valid {
		sum := 0.0
		for tr := 0; tr < trials; tr++ {
			sum += sq[li*trials+tr]
		}
		out[li] = AccuracyPoint{
			StreamLen:               l,
			RMSE:                    math.Sqrt(sum / float64(trials)),
			ThroughputResultsPerSec: s.Unit.Circuit.P.ThroughputBitsPerSec(l),
		}
	}
	return out
}

// AccuracyVsLength measures the end-to-end RMSE at input x for each
// stream length, averaging over trials runs — the §V.B trade-off:
// transmission errors and stochastic fluctuation both shrink as
// streams lengthen, at proportional cost in throughput.
//
// The (length, trial) pairs are independent work items dispatched on
// the given engine like NoiseStudy's combinations: trial i runs the
// word-parallel noisy path with SNG and noise seeds derived from the
// simulator's seed and i alone (trialSeeds over a salted stream), so
// the study is bit-identical on every conforming engine, deterministic
// on any core count, and identical across repeated calls — it does not
// advance the simulator's generators or its serial uniform stream. A nil
// engine is an error. If several trials fail, the error of the lowest
// failing index is returned (a deterministic choice). A fired ctx stops
// the trial fan-out at a trial boundary and surfaces a *engine.Partial
// (wrapping the context error, or the *parallel.PanicError of a
// faulting trial) instead of points.
func (s *Simulator) AccuracyVsLength(ctx context.Context, e engine.Engine, x float64, lengths []int, trials int) ([]AccuracyPoint, error) {
	if trials < 1 {
		trials = 1
	}
	valid := accuracyLengths(lengths)
	want := s.Unit.Poly.Eval(x)
	tab, err := s.Unit.NoisyTable(s.SigmaMW)
	if err != nil {
		return nil, err
	}
	sq := make([]float64, len(valid)*trials)
	errs := make([]error, len(sq))
	if err := engine.RunPartial(ctx, e, len(sq), func(i int) {
		unitSeed, noiseSeed := trialSeeds(s.seed^accuracySalt, i)
		got, err := s.Unit.EvaluateNoisySeeded(unitSeed, noiseSeed, x, valid[i/trials], tab)
		if err != nil {
			errs[i] = err
			return
		}
		d := got - want
		sq[i] = d * d
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return s.accuracyReduce(valid, trials, sq), nil
}

// String implements fmt.Stringer.
func (p AccuracyPoint) String() string {
	return fmt.Sprintf("L=%d: RMSE %.4f @ %.3g results/s", p.StreamLen, p.RMSE, p.ThroughputResultsPerSec)
}
