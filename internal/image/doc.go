// Package image provides the error-tolerant image-processing
// applications the paper motivates stochastic computing with (§V.C):
// a minimal grayscale image type with PGM I/O, synthetic test-image
// generators, and the two canonical SC workloads — gamma correction
// and Robert's-cross edge detection — each computed exactly and
// stochastically, with PSNR against the exact result as the quality
// metric.
//
// Gamma correction maps gray levels to probabilities as v/255 and
// evaluates a degree-6 Bernstein approximation of x^gamma once per
// distinct level through the batch evaluators (GammaReSC,
// GammaOptical), applying the result as a lookup table. Those
// evaluators read the SplitMix64 streams by counter index and draw, per
// clock, the data bits and only the coefficient bits the multiplexer
// routes to the output (stochastic.RowKernel). The table is a pure
// function of its recipe — batch randomness is (seed, level)-derived —
// so video-style workloads amortize it across frames: GammaLUTCache
// memoizes the coefficient fit, the circuit solve and the quantized LUT
// per (gamma, degree, spacing, streamLen, seed), and GammaVideo
// corrects a whole frame batch through one cached table, fanning the
// per-frame LUT applications over the evaluation engine it is handed.
// Quickstart:
//
//	var cache image.GammaLUTCache
//	out, err := image.GammaVideo(ctx, engine.WordParallel, frames, 0.45, 6, 0.3, 1024, 9, &cache)
//
// Edge detection has no LUT shortcut — every pixel window needs its
// own correlated streams — so RobertsCrossSC fans row bands out over
// the evaluation engine and counts each pixel's output by counter
// index: the ½-select plane is split once per call into its 0 and 1
// clocks (stochastic.SplitPlane), and each absolute-difference stream
// is drawn only at the clocks the select routes to the output
// (stochastic.AbsDiffOnes), with flat diagonal pairs eliding their
// draws entirely. The plane kernels (stochastic.FillAbsDiffPlane,
// MuxPlanes, PlaneOnes) are its reference. Per-pixel seeds derive from
// the pixel index via stochastic.DeriveSeed, so the output is
// bit-identical to the engine.Serial run on any engine or core count.
// Quickstart:
//
//	src := image.Checkerboard(64, 64, 8, 30, 220)
//	sc, err := image.RobertsCrossSC(ctx, engine.WordParallel, src, 4096, 7)
//	psnr := image.PSNR(image.RobertsCrossExact(src), sc)
package image
