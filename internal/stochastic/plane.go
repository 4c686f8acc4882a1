package stochastic

import (
	"fmt"
	"math"
	"math/bits"
)

// Plane kernels: word-level gate primitives over caller-owned scratch.
//
// A *plane* is a packed bit-stream held in a plain []uint64, LSB-first
// within each word exactly like Bitstream's backing words, but with no
// header and no per-call allocation: tiled engines (internal/image)
// allocate a few planes per worker and stream millions of pixels
// through them. (Not to be confused with AddPlane/PlaneEquals above,
// whose "planes" are the bit-planes of a carry-save counter.)
//
// All fill kernels write exactly WordsFor(n) words and leave bits past
// n clear, so the combinators below need no tail masking and PlaneOnes
// can popcount whole words.
//
// The fill kernels and combinators are the references for the
// counter-indexed AbsDiffOnes at the end of this file, which draws
// only the clocks a multiplexer routes to its output.

// WordsFor returns the number of 64-bit words covering n bits.
func WordsFor(n int) int { return (n + 63) / 64 }

// ProbThreshold maps a probability to the integer comparator threshold
// used by the devirtualized SplitMix64 paths: Next() < p compares
// k/2^53 against p with k = NextUint64()>>11; both k/2^53 and p·2^53
// are exact (power-of-two scaling), so k < ceil(p·2^53) is the same
// predicate with the per-sample int→float conversion dropped — a
// Bernoulli(p) draw whose p is quantized up to a multiple of 2^-53.
// The degenerate probabilities clamp to the never/always thresholds;
// a draw decides 1 iff k < threshold, which (both below 2^63) is bit
// 63 of k − threshold.
func ProbThreshold(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

func checkPlane(name string, p []uint64, words int) {
	if len(p) < words {
		panic(fmt.Sprintf("stochastic: plane %s holds %d words, need %d", name, len(p), words))
	}
}

// planeWordBits returns how many of word w's bits are in range for an
// n-bit stream.
func planeWordBits(n, w int) int {
	if rem := n - w*64; rem < 64 {
		return rem
	}
	return 64
}

// FillPlane fills dst with an n-bit Bernoulli(p) stream drawn from
// src, consuming the source exactly as SNG.Generate would — the two
// produce identical bits from equal sources.
func FillPlane(src NumberSource, p float64, n int, dst []uint64) {
	words := WordsFor(n)
	checkPlane("dst", dst, words)
	for w := 0; w < words; w++ {
		dst[w] = bernoulliWord(src, p, planeWordBits(n, w))
	}
}

// FillAbsDiffPlane fills dst with the n-bit absolute-difference
// stream |a−b| of a maximally correlated pair: each clock draws ONE
// uniform sample shared by both comparators, so the streams overlap as
// much as their values allow and their XOR — bit t is set iff the draw
// falls between the two thresholds — is |a−b| exactly (the
// absolute-difference gate of the edge-detection workload). Unlike
// FillPlane, one sample is consumed per bit even for degenerate
// probabilities, since the draw is shared. It is the reference for
// AbsDiffOnes.
func FillAbsDiffPlane(src NumberSource, a, b float64, n int, dst []uint64) {
	words := WordsFor(n)
	checkPlane("dst", dst, words)
	if sm, ok := src.(*SplitMix64); ok {
		// Devirtualized integer-domain fast path (see ProbThreshold),
		// branchless: k and both thresholds sit far below 2^63, so
		// k < thr iff k−thr wraps, and the XOR of the two wrap
		// indicators is 1 iff k lands between the thresholds. Clock
		// t's bit is shifted in at the top, so the word ends LSB-first
		// after nbits shifts (a partial tail is realigned below).
		thrA, thrB := ProbThreshold(a), ProbThreshold(b)
		for w := 0; w < words; w++ {
			nbits := planeWordBits(n, w)
			var wd uint64
			for t := 0; t < nbits; t++ {
				k := sm.NextUint64() >> 11
				wd = wd>>1 | ((k-thrA)^(k-thrB))&(1<<63)
			}
			if nbits < 64 {
				wd >>= 64 - uint(nbits)
			}
			dst[w] = wd
		}
		return
	}
	for w := 0; w < words; w++ {
		nbits := planeWordBits(n, w)
		var wd uint64
		for t := 0; t < nbits; t++ {
			r := src.Next()
			if (r < a) != (r < b) {
				wd |= 1 << uint(t)
			}
		}
		dst[w] = wd
	}
}

// AndPlanes stores a AND b into dst — the independent-stream
// multiplier (Multiply) on planes. dst may alias a or b.
func AndPlanes(dst, a, b []uint64) {
	checkPlane("a", a, len(dst))
	checkPlane("b", b, len(dst))
	for i := range dst {
		dst[i] = a[i] & b[i]
	}
}

// MuxPlanes stores the 2:1 multiplex of a and b under sel into dst:
// output bit t is a's where sel is 0 and b's where sel is 1 — the
// scaled adder (ScaledAdd) on planes. dst may alias any input.
func MuxPlanes(dst, sel, a, b []uint64) {
	checkPlane("sel", sel, len(dst))
	checkPlane("a", a, len(dst))
	checkPlane("b", b, len(dst))
	for i := range dst {
		dst[i] = (a[i] &^ sel[i]) | (b[i] & sel[i])
	}
}

// PlaneOnes returns the number of set bits. With the zero-tail
// invariant maintained by the fill kernels, this is the stream's ones
// count; value = PlaneOnes(p)/n.
func PlaneOnes(p []uint64) int {
	c := 0
	for _, w := range p {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clocks is an ascending set of clock indices of a stream, held as the
// SplitMix64 counter offsets of those draws, so a kernel reads clock t
// of any seed's stream with one add. Build it with SplitPlane.
type Clocks struct{ ctr []uint64 }

// SplitPlane returns the clocks at which the n-bit plane sel is 0 and
// those at which it is 1: the two routes of a multiplexer with select
// stream sel.
func SplitPlane(sel []uint64, n int) (zeros, ones Clocks) {
	checkPlane("sel", sel, WordsFor(n))
	set := PlaneOnes(sel[:WordsFor(n)])
	zeros.ctr = make([]uint64, 0, n-set)
	ones.ctr = make([]uint64, 0, set)
	for t := 0; t < n; t++ {
		if sel[t/64]>>uint(t%64)&1 == 0 {
			zeros.ctr = append(zeros.ctr, splitMixCounter(t))
		} else {
			ones.ctr = append(ones.ctr, splitMixCounter(t))
		}
	}
	return zeros, ones
}

// AbsDiffOnes counts the clocks in cs at which the absolute-difference
// stream of FillAbsDiffPlane(NewSplitMix64(seed), a, b, ...) is 1: it
// draws SplitMix64(seed) at those clocks only, by counter index, and
// tests each draw against the band between the two thresholds. Masking
// FillAbsDiffPlane's plane to cs and counting its ones gives the same
// number.
func AbsDiffOnes(seed uint64, a, b float64, cs Clocks) int {
	thrA, thrB := ProbThreshold(a), ProbThreshold(b)
	ones := 0
	for _, ctr := range cs.ctr {
		k := splitMixMix(seed+ctr) >> 11
		ones += int(((k - thrA) ^ (k - thrB)) >> 63)
	}
	return ones
}
