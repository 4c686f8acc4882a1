// Package dse (design-space exploration) regenerates every evaluated
// figure of the paper as structured data plus text-table renderings:
//
//   - Fig. 5(a)/(b): transmission spectra of the modulator rings and
//     filter with per-channel totals for the two worked examples;
//   - Fig. 5(c): received optical power for every (x, z) combination,
//     grouped into the '0' and '1' de-randomizer bands;
//   - Fig. 6(a): minimum probe laser power over an (IL, ER) grid at
//     fixed pump power and BER target (MZI-first method);
//   - Fig. 6(b): minimum probe power versus BER target;
//   - Fig. 6(c): minimum probe power for four published MZI devices;
//   - Fig. 7(a): laser energy per bit versus wavelength spacing, per
//     polynomial order, with the pump/probe crossover and optimum;
//   - Fig. 7(b): total energy versus polynomial order at 1 nm and at
//     the optimal spacing, with the headline energy saving.
//
// The functions return plain structs so tests can assert on the data,
// and each has a Render* companion writing the human-readable table
// that cmd/oscbench prints.
//
// # Parallel sweep engine
//
// Every study above runs on the one sweep runner in sweep.go, Sweep,
// which fans independent points over the engine it is handed and
// returns results in index order (a grid is a sweep decoded
// row-major). Randomness, where a study needs it, derives from the
// base seed and the point index alone (stochastic.DeriveSeed), so
// every sweep is bit-identical on every engine, at any GOMAXPROCS and
// under any scheduling. A point function never dispatches on the
// engine it was handed: nested engine sweeps run on engine.Serial,
// while the word-parallel batch evaluators a point may call (as
// NoiseStudy and StreamLengthSweep do) keep their own pool.
// Quickstart:
//
//	pts, err := dse.Fig6A(ctx, e, 12, 12) // 144 MZI-first solves on e
//	rows, err := dse.Sweep(ctx, e, n, func(i int) (Row, error) {
//	    seed := stochastic.DeriveSeed(base, i) // Monte-Carlo point, own seed
//	    ...
//	})
package dse
