package stochastic

import (
	"fmt"

	"repro/internal/parallel"
)

// This file holds the two ReSC evaluators past the bit-serial
// Step/Evaluate oracle.
//
// EvaluateWords is the word-parallel reference: 64 clocks per machine
// word, the n data bits summed by a bitwise carry-save adder tree and
// the coefficient multiplexer resolved word-at-a-time from the sum's
// bit-planes. It consumes every source in cycle order, so it is
// bit-identical to the serial path whenever the unit's sources are
// mutually independent, which the ReSC contract already requires.
//
// The batch kernel (RowKernel, behind EvaluateBatch here and
// core.Unit.EvaluateBatch) computes only the draws its output reads.
// SplitMix64 is counter-based, so a source's bit at clock t is a pure
// function of its seed and t: per clock the kernel draws the n data
// bits, and then only the coefficient bits that the weight's decision
// row reads — one of n+1 for a multiplexer. The count equals
// EvaluateWords' on sources seeded by the same SeedLayout.

// AddPlane adds one 0/1-per-slot word into the bit-planes of a
// per-slot counter: planes[k] holds bit k of each slot's running sum.
// It is a ripple of 64 full adders evaluated as word operations — the
// carry-save adder tree of the packed evaluators (here and in
// internal/core).
func AddPlane(planes []uint64, w uint64) []uint64 {
	for k := 0; w != 0 && k < len(planes); k++ {
		planes[k], w = planes[k]^w, planes[k]&w
	}
	if w != 0 {
		planes = append(planes, w)
	}
	return planes
}

// PlaneEquals returns the indicator word for "slot sum == v": bit t is
// set iff the counter encoded by planes equals v at slot t.
func PlaneEquals(planes []uint64, v int) uint64 {
	if v>>uint(len(planes)) != 0 {
		return 0
	}
	ind := ^uint64(0)
	for k, pl := range planes {
		if v>>uint(k)&1 == 1 {
			ind &= pl
		} else {
			ind &= ^pl
		}
	}
	return ind
}

// EvaluateWords runs `length` clock cycles at input x through the
// word-parallel datapath and returns the de-randomized estimate of
// B(x) with the raw output stream — the packed equivalent of
// Evaluate, 64 cycles per inner iteration. The two paths produce
// identical bitstreams from equal, mutually independent sources.
func (r *ReSC) EvaluateWords(x float64, length int) (float64, *Bitstream) {
	n := r.Degree()
	out := NewBitstream(length)
	var planes []uint64
	coefWords := make([]uint64, n+1)
	for w := 0; w < out.WordCount(); w++ {
		nbits := out.WordBits(w)
		planes = planes[:0]
		for i := 0; i < n; i++ {
			planes = AddPlane(planes, bernoulliWord(r.DataSources[i], x, nbits))
		}
		for i := 0; i <= n; i++ {
			coefWords[i] = bernoulliWord(r.CoefSources[i], r.Poly.Coef[i], nbits)
		}
		var word uint64
		for s := 0; s <= n; s++ {
			word |= PlaneEquals(planes, s) & coefWords[s]
		}
		out.SetWord(w, word)
	}
	return out.Value(), out
}

// DeriveSeed derives the randomness seed for batch input i from a
// base seed: a SplitMix64 step of base+i, so neighbouring indices get
// well-separated generator states. Batch evaluators here and in
// internal/core seed input i's sources from DeriveSeed(seed, i) alone,
// which is what makes their results scheduling-independent.
func DeriveSeed(base uint64, i int) uint64 {
	return NewSplitMix64(base + uint64(i)).NextUint64()
}

// DecisionRow is one data weight's row of a multiplexer-ending unit's
// output decision: the coefficient bits the output reads when the n
// data bits sum to that weight, and its truth table over them.
type DecisionRow struct {
	// Reads lists the coefficient indices the row reads, ascending.
	Reads []int
	// Table holds the output for each pattern m of the read bits (bit
	// j of m is coefficient Reads[j]'s bit) at bit m%64 of word m/64.
	Table []uint64
}

// muxTable is the truth table of a row reading one bit and passing it
// through: output 1 for pattern 1.
var muxTable = []uint64{0b10}

// muxRows returns a degree-n multiplexer's rows: weight w reads and
// outputs coefficient w.
func muxRows(n int) []DecisionRow {
	rows := make([]DecisionRow, n+1)
	for w := range rows {
		rows[w] = DecisionRow{Reads: []int{w}, Table: muxTable}
	}
	return rows
}

// RowKernel evaluates a multiplexer-ending unit by counter index: n
// data sources and n+1 coefficient sources, each a SplitMix64 stream
// seeded by a SeedLayout, and one DecisionRow per data weight. Per
// clock it draws the n data bits, forms the weight w, draws only the
// coefficient bits row w reads and counts the output. Degenerate
// probabilities (0 or 1) draw nothing, as in bernoulliWord. It is
// immutable once built and safe for concurrent use.
type RowKernel struct {
	seeds SeedLayout
	rows  []DecisionRow
	coefs []coefBit
}

// coefBit is one coefficient source as the kernel reads it: its seed
// offset from the base seed, and its comparator threshold or, for a
// degenerate probability, its constant bit.
type coefBit struct {
	offset uint64
	thr    uint64
	draw   bool
	bit    uint64
}

// NewRowKernel builds the kernel for coefficient probabilities coef
// (n+1 of them) and one row per weight 0..n (len(rows) == len(coef)),
// with sources seeded by seeds.
func NewRowKernel(seeds SeedLayout, coef []float64, rows []DecisionRow) *RowKernel {
	if len(rows) != len(coef) {
		panic(fmt.Sprintf("stochastic: %d decision rows for %d coefficients", len(rows), len(coef)))
	}
	k := &RowKernel{seeds: seeds, rows: rows, coefs: make([]coefBit, len(coef))}
	for j, p := range coef {
		c := &k.coefs[j]
		c.offset = seeds.Coef(0, j)
		switch {
		case p <= 0:
		case p >= 1:
			c.bit = 1
		default:
			c.draw, c.thr = true, ProbThreshold(p)
		}
	}
	return k
}

// Value returns the fraction of ones in the unit's `length`-bit output
// stream at input x with sources seeded from base seed seed: exactly
// the value of the word-parallel reference on sources built from the
// same SeedLayout (0 for a non-positive length).
func (k *RowKernel) Value(seed uint64, x float64, length int) float64 {
	if length <= 0 {
		return 0
	}
	n := len(k.rows) - 1
	// The weight is fixed when x is degenerate; otherwise every clock
	// draws all n data bits against thrX.
	fixed := -1
	switch {
	case x <= 0:
		fixed = 0
	case x >= 1:
		fixed = n
	}
	thrX := ProbThreshold(x)
	data := k.seeds.Data(seed, 0)
	ones := 0
	for t := 0; t < length; t++ {
		ctr := splitMixCounter(t)
		w := fixed
		if w < 0 {
			w = 0
			s := data + ctr
			for i := 0; i < n; i++ {
				w += int((splitMixMix(s)>>11 - thrX) >> 63)
				s += k.seeds.DataStride
			}
		}
		row := &k.rows[w]
		m := 0
		for j, c := range row.Reads {
			cb := &k.coefs[c]
			bit := cb.bit
			if cb.draw {
				bit = (splitMixMix(seed+cb.offset+ctr)>>11 - cb.thr) >> 63
			}
			m |= int(bit) << uint(j)
		}
		ones += int(row.Table[m>>6] >> uint(m&63) & 1)
	}
	return float64(ones) / float64(length)
}

// EvaluateBatch evaluates the polynomial at every x in xs with fresh
// `length`-bit streams, fanning the inputs out over a
// runtime.GOMAXPROCS-sized worker pool. Input i reads the streams of
// NewReSCWithSeeds(poly, DeriveSeed(seed, i)) by counter index through
// the multiplexer RowKernel, so the result equals that unit's
// EvaluateWords and is reproducible regardless of core count or
// scheduling. It returns an error for a non-positive stream length or
// an unusable polynomial.
func EvaluateBatch(poly BernsteinPoly, xs []float64, length int, seed uint64) ([]float64, error) {
	if length <= 0 {
		return nil, fmt.Errorf("stochastic: stream length %d, need >= 1", length)
	}
	if err := checkPoly(poly); err != nil {
		return nil, err
	}
	k := NewRowKernel(rescSeeds, poly.Coef, muxRows(poly.Degree()))
	out := make([]float64, len(xs))
	parallel.For(len(xs), func(i int) {
		out[i] = k.Value(DeriveSeed(seed, i), xs[i], length)
	})
	return out, nil
}
