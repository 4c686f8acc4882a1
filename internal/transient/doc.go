// Package transient implements the time-domain simulation the paper
// lists as future work (§V.D item ii): clocked bit-slot simulation of
// the optical stochastic-computing unit with additive Gaussian
// detector noise, pulse-gated detection for the 26 ps pump laser, and
// measurement of the resulting bit-error rate and end-to-end
// computational accuracy.
//
// The noise model follows the paper's Eq. (8) exactly: the detector's
// internal noise current i_n against responsivity R corresponds to a
// received-power standard deviation σ = i_n/R, so the measured BER of
// a simulation run converges to the analytical Eq. (9) prediction
// when the worst-case signal/crosstalk patterns are transmitted.
// That agreement is the package's main validation test, checked
// against binomial confidence bounds (internal/stattest).
//
// # Decisions are Bernoulli, the analog value is Gaussian
//
// A path that only needs the decided bit never draws a noise sample:
// with Gaussian noise the bit is 1 with probability
// Q((threshold − power)/σ), so it is one uniform draw against that
// probability, quantized to 2^-53 (core.NoisyTable,
// stochastic.ProbThreshold). Each call builds the decision table once
// from the SigmaMW in force. MeasureWorstCaseBER goes further: both
// worst-case patterns err with the same p = Q(Δ/2σ), so it fills
// error planes directly (stochastic.FillPlane) and counts them
// (PlaneOnes). Paths that observe the analog detector value — Trace,
// MeasureEye, SyncSweep — draw Gaussian samples (Gaussian.FillScaled,
// Box–Muller over the simulator's uniform stream).
//
// # Batched noisy evaluation
//
// Every noisy evaluator comes in two equivalent forms. The bit-serial
// Simulator.Evaluate path (core.Unit.StepNoisy) advances one clock
// per call and serves as the oracle. The word-parallel path
// (Simulator.EvaluateWords) simulates 64 clocks per machine word — SNG
// words, the carry-save weight tree and one decision-table compare per
// clock — reads the same uniform stream and emits bit-identical
// streams. Monte-Carlo studies go through Simulator.EvaluateBatch,
// which dispatches independent trials on an engine with per-trial
// seeds derived by stochastic.DeriveSeed, so results are identical on
// every engine and core count. Quickstart:
//
//	u, _ := core.NewUnit(circuit, poly, 1)
//	sim := transient.NewSimulator(u, 2)
//	val, _, err := sim.EvaluateWords(0.5, 4096)      // one noisy stream
//	xs := []float64{0.5, 0.5, 0.5, 0.5}              // 4 independent trials
//	vals, err := sim.EvaluateBatch(ctx, e, xs, 4096) // fanned over e
//	ber, err := sim.MeasureWorstCaseBER(200_000)
//
// On top of the bit-level simulator the package provides the
// throughput–accuracy trade-off study (§V.B): longer stochastic
// streams average transmission errors away, letting a designer trade
// probe laser power against stream length; internal/dse.NoiseStudy
// sweeps that trade-off over probe power and noise sigma.
//
// # Word-parallel measurements
//
// Every measurement on top of the simulator follows the same pattern:
// one engine-dispatched entry point X(ctx, e, ...) whose randomness
// derives from item indices — bit-identical across engines on any core
// count (engine.Serial is the oracle), pinned by this package's
// internal/engine/enginetest suite.
//
//   - EvaluateBatch — trials fanned over the engine with per-trial
//     derived seeds against one decision table per call; nested
//     inside a sweep point (dse.NoiseStudy) it runs on engine.Serial.
//   - Trace — the pulse-gated waveform written over core.Unit.Cycles
//     (64 decoded cycles per SNG word draw) with per-slot block noise
//     fills.
//   - MeasureEye — decision-instant statistics over the same
//     decoded-cycle visitor.
//   - SyncSweep — sampling offsets fanned over the engine with
//     per-offset derived noise seeds.
//   - BERWaterfall — probe-power points fanned over the engine, each
//     rebuilding its circuit with per-point derived unit and simulator
//     seeds.
//   - AccuracyVsLength — (length, trial) pairs fanned over the engine
//     with per-trial derived seeds; it does not advance the
//     simulator's generators, so repeated calls return identical
//     points.
package transient
