package image

import (
	"context"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/stochastic"
)

// Edge detection is the second canonical error-tolerant image
// workload of the SC literature (alongside gamma correction): the
// Robert's-cross operator
//
//	E(x,y) = ½(|P(x,y) − P(x+1,y+1)| + |P(x+1,y) − P(x,y+1)|)
//
// maps onto two XOR gates and a multiplexer when the pixel streams
// share a randomness source: for *correlated* unipolar streams
// XOR computes the absolute difference exactly (see
// stochastic.AbsDiffXOR), and a ½-select MUX averages the two terms.

// RobertsCrossExact computes the operator in floating point.
func RobertsCrossExact(src *Gray) *Gray {
	out := NewGray(src.W, src.H)
	for y := 0; y < src.H-1; y++ {
		for x := 0; x < src.W-1; x++ {
			a := float64(src.At(x, y)) / 255
			b := float64(src.At(x+1, y+1)) / 255
			c := float64(src.At(x+1, y)) / 255
			d := float64(src.At(x, y+1)) / 255
			e := (math.Abs(a-b) + math.Abs(c-d)) / 2
			out.Set(x, y, quantize(e))
		}
	}
	return out
}

// selSalt decorrelates the shared averaging-select stream from the
// per-pixel difference streams derived from the same user seed.
const selSalt = 0xD1B54A32D192ED03

// pixelSeeds derives the two per-pixel randomness seeds (one per
// diagonal difference pair) through stochastic.DeriveSeed, so adjacent
// pixels get well-separated generator states rather than the weakly
// spaced states a linear seed+offset scheme would give.
func pixelSeeds(seed uint64, idx int) (uint64, uint64) {
	return stochastic.DeriveSeed(seed, 2*idx), stochastic.DeriveSeed(seed, 2*idx+1)
}

// edgeRowsPerTile is the tile height of the packed engine: tiles are
// bands of rows fanned out over the worker pool, coarse enough to
// amortize scheduling and fine enough to load-balance small images.
const edgeRowsPerTile = 8

// absDiffOnes counts the ones of the |va−vb| stream of the correlated
// pixel pair (a, b) seeded by seed over the clocks cs. Equal gray
// levels are elided: identically thresholded streams XOR to exactly
// zero, so flat diagonals — most of a natural image — cost no RNG
// draws.
func absDiffOnes(a, b uint8, seed uint64, cs stochastic.Clocks) int {
	if a == b {
		return 0
	}
	return stochastic.AbsDiffOnes(seed, float64(a)/255, float64(b)/255, cs)
}

// RobertsCrossSC computes the operator stochastically with
// `streamLen`-bit streams. Pixel streams within one 2×2 window share
// one randomness source (maximal correlation) so XOR realizes the
// absolute difference; the two difference streams and the averaging
// select stream are mutually independent.
//
// The ½-select MUX keeps the first difference only where the select
// is 0 and the second only where it is 1, so the kernel draws only
// those bits: the select plane is built once per call and split into
// its two clock sets (stochastic.SplitPlane), and each pixel counts the
// first difference's band hits over the select-0 clocks and the
// second's over the select-1 clocks by counter index
// (stochastic.AbsDiffOnes) — one draw per clock instead of two, with
// no per-pixel or per-worker buffers, and flat diagonal pairs elide
// their draws entirely. The count equals the plane pipeline
// FillAbsDiffPlane, MuxPlanes, PlaneOnes, which stays as its
// reference. Row bands are independent work items dispatched on the
// given engine, and every pixel's randomness derives from its index
// alone (pixelSeeds), so the output is bit-identical on every
// conforming engine and deterministic on any GOMAXPROCS. A
// non-positive stream length is an error (it would silently produce a
// garbage image), as is a nil engine. A fired ctx stops the band
// fan-out at a band boundary and returns its error (or the
// *parallel.PanicError of a faulting band).
func RobertsCrossSC(ctx context.Context, e engine.Engine, src *Gray, streamLen int, seed uint64) (*Gray, error) {
	if err := engine.Check(e); err != nil {
		return nil, err
	}
	if streamLen < 1 {
		return nil, fmt.Errorf("image: stream length %d, need >= 1", streamLen)
	}
	out := NewGray(src.W, src.H)
	rows, cols := src.H-1, src.W-1
	if rows < 1 || cols < 1 {
		return out, nil
	}
	sel := make([]uint64, stochastic.WordsFor(streamLen))
	stochastic.FillPlane(stochastic.NewSplitMix64(seed^selSalt), 0.5, streamLen, sel)
	via0, via1 := stochastic.SplitPlane(sel, streamLen)
	tiles := (rows + edgeRowsPerTile - 1) / edgeRowsPerTile
	if err := e.Run(ctx, tiles, e.Workers(tiles), func(_, t int) {
		yEnd := min((t+1)*edgeRowsPerTile, rows)
		for y := t * edgeRowsPerTile; y < yEnd; y++ {
			for x := 0; x < cols; x++ {
				s1, s2 := pixelSeeds(seed, y*src.W+x)
				ones := absDiffOnes(src.At(x, y), src.At(x+1, y+1), s1, via0) +
					absDiffOnes(src.At(x+1, y), src.At(x, y+1), s2, via1)
				out.Set(x, y, quantize(float64(ones)/float64(streamLen)))
			}
		}
	}); err != nil {
		return nil, err
	}
	return out, nil
}
