package stochastic

import (
	"math"
	"testing"
)

// planeToBitstream copies an n-bit plane into a Bitstream for
// comparison against the reference gate implementations.
func planeToBitstream(p []uint64, n int) *Bitstream {
	b := NewBitstream(n)
	for w := 0; w < b.WordCount(); w++ {
		b.SetWord(w, p[w])
	}
	return b
}

func TestWordsFor(t *testing.T) {
	for _, tc := range [][2]int{{0, 0}, {1, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3}} {
		if got := WordsFor(tc[0]); got != tc[1] {
			t.Errorf("WordsFor(%d) = %d, want %d", tc[0], got, tc[1])
		}
	}
}

func TestProbThreshold(t *testing.T) {
	if ProbThreshold(0) != 0 || ProbThreshold(-3) != 0 {
		t.Error("degenerate zero threshold")
	}
	if ProbThreshold(1) != 1<<53 || ProbThreshold(2) != 1<<53 {
		t.Error("degenerate one threshold")
	}
	if ProbThreshold(0.5) != 1<<52 {
		t.Errorf("threshold(0.5) = %d", ProbThreshold(0.5))
	}
}

// TestFillPlaneMatchesGenerate: the plane fill is SNG.Generate without
// the Bitstream — identical bits from equal sources, for both the
// devirtualized SplitMix64 path and a generic source.
func TestFillPlaneMatchesGenerate(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 1000} {
		for _, p := range []float64{0, 0.25, 0.5, 0.9, 1} {
			want := NewSNG(NewSplitMix64(42)).Generate(p, n)
			plane := make([]uint64, WordsFor(n))
			FillPlane(NewSplitMix64(42), p, n, plane)
			for w := 0; w < want.WordCount(); w++ {
				if plane[w] != want.Word(w) {
					t.Fatalf("n=%d p=%g word %d: %x vs %x", n, p, w, plane[w], want.Word(w))
				}
			}

			wantL := NewSNG(MustLFSR(16, 5)).Generate(p, n)
			FillPlane(MustLFSR(16, 5), p, n, plane)
			for w := 0; w < wantL.WordCount(); w++ {
				if plane[w] != wantL.Word(w) {
					t.Fatalf("LFSR n=%d p=%g word %d differs", n, p, w)
				}
			}
		}
	}
}

// referenceCorrelatedPair is the serial definition the kernel must
// match: one shared draw per clock, thresholded against both values.
func referenceCorrelatedPair(src NumberSource, a, b float64, n int) (*Bitstream, *Bitstream) {
	sa, sb := NewBitstream(n), NewBitstream(n)
	for i := 0; i < n; i++ {
		r := src.Next()
		if r < a {
			sa.Set(i, 1)
		}
		if r < b {
			sb.Set(i, 1)
		}
	}
	return sa, sb
}

// TestCorrelatedXorIsAbsDiff: the whole point of sharing the draw —
// XOR of the pair converges to |a−b|, far below the independent-stream
// expectation a(1−b) + b(1−a).
func TestCorrelatedXorIsAbsDiff(t *testing.T) {
	const n = 1 << 16
	a, b := 0.7, 0.45
	pa, pb := referenceCorrelatedPair(NewSplitMix64(1), a, b, n)
	got := pa.Xor(pb).Value()
	if math.Abs(got-math.Abs(a-b)) > 0.01 {
		t.Errorf("correlated XOR = %g, want |a-b| = %g", got, math.Abs(a-b))
	}
	if c := Correlation(pa, pb); c < 0.99 {
		t.Errorf("pair correlation = %g, want ~1", c)
	}
}

// TestFillAbsDiffPlaneMatchesPairXor: the fused gate equals the
// serial correlated pair followed by XOR, on both source paths.
func TestFillAbsDiffPlaneMatchesPairXor(t *testing.T) {
	for _, n := range []int{1, 64, 65, 777} {
		for _, pair := range [][2]float64{{0.3, 0.7}, {0, 1}, {0.5, 0.5}, {1, 0.2}, {0.9, 0.9}} {
			a, b := pair[0], pair[1]
			got := make([]uint64, WordsFor(n))

			pa, pb := referenceCorrelatedPair(NewSplitMix64(13), a, b, n)
			want := pa.Xor(pb)
			FillAbsDiffPlane(NewSplitMix64(13), a, b, n, got)
			for w := 0; w < want.WordCount(); w++ {
				if got[w] != want.Word(w) {
					t.Fatalf("n=%d (%g,%g) word %d: %x vs %x", n, a, b, w, got[w], want.Word(w))
				}
			}

			pa, pb = referenceCorrelatedPair(NewChaoticSource(0.2), a, b, n)
			want = pa.Xor(pb)
			FillAbsDiffPlane(NewChaoticSource(0.2), a, b, n, got)
			for w := 0; w < want.WordCount(); w++ {
				if got[w] != want.Word(w) {
					t.Fatalf("chaotic n=%d (%g,%g) word %d differs", n, a, b, w)
				}
			}
		}
	}
}

// TestFillAbsDiffPlaneConsumption: the fused gate consumes one draw
// per clock even for degenerate probabilities, because the draw is
// shared by both comparators.
func TestFillAbsDiffPlaneConsumption(t *testing.T) {
	const n = 130
	d := make([]uint64, WordsFor(n))
	src := NewSplitMix64(3)
	FillAbsDiffPlane(src, 0, 1, n, d)
	ref := NewSplitMix64(3)
	for i := 0; i < n; i++ {
		ref.Next()
	}
	if src.Next() != ref.Next() {
		t.Error("degenerate fill consumed wrong number of draws")
	}
	if PlaneOnes(d) != n {
		t.Errorf("|0-1| fill: %d ones, want %d", PlaneOnes(d), n)
	}
}

func TestFillAbsDiffPlaneValue(t *testing.T) {
	const n = 1 << 16
	d := make([]uint64, WordsFor(n))
	FillAbsDiffPlane(NewSplitMix64(2), 0.8, 0.15, n, d)
	if got := float64(PlaneOnes(d)) / n; math.Abs(got-0.65) > 0.01 {
		t.Errorf("|0.8-0.15| stream = %g", got)
	}
}

// TestPlaneCombinatorsMatchBitstreamGates checks each plane combinator
// against the allocating Bitstream gate it replaces.
func TestPlaneCombinatorsMatchBitstreamGates(t *testing.T) {
	const n = 200
	words := WordsFor(n)
	mk := func(p float64, seed uint64) ([]uint64, *Bitstream) {
		pl := make([]uint64, words)
		FillPlane(NewSplitMix64(seed), p, n, pl)
		return pl, planeToBitstream(pl, n)
	}
	pa, ba := mk(0.6, 1)
	pb, bb := mk(0.3, 2)
	ps, bs := mk(0.5, 3)
	dst := make([]uint64, words)

	check := func(name string, want *Bitstream) {
		t.Helper()
		for w := 0; w < want.WordCount(); w++ {
			if dst[w] != want.Word(w) {
				t.Fatalf("%s word %d: %x vs %x", name, w, dst[w], want.Word(w))
			}
		}
	}
	AndPlanes(dst, pa, pb)
	check("and", ba.And(bb))
	if got := PlaneOnes(dst); got != ba.And(bb).Ones() {
		t.Errorf("and ones = %d, want %d", got, ba.And(bb).Ones())
	}
	MuxPlanes(dst, ps, pa, pb)
	check("mux", Mux(bs, ba, bb))
}

// TestPlaneAliasing: combinators allow dst to alias an input — the
// scratch-reuse pattern of the tiled engines.
func TestPlaneAliasing(t *testing.T) {
	const n = 100
	words := WordsFor(n)
	pa := make([]uint64, words)
	pb := make([]uint64, words)
	ps := make([]uint64, words)
	FillPlane(NewSplitMix64(4), 0.4, n, pa)
	FillPlane(NewSplitMix64(5), 0.8, n, pb)
	FillPlane(NewSplitMix64(6), 0.5, n, ps)
	want := Mux(planeToBitstream(ps, n), planeToBitstream(pa, n), planeToBitstream(pb, n))
	MuxPlanes(pa, ps, pa, pb)
	for w := 0; w < want.WordCount(); w++ {
		if pa[w] != want.Word(w) {
			t.Fatalf("aliased mux word %d differs", w)
		}
	}
}

func TestPlaneSizePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	short := make([]uint64, 1)
	ok := make([]uint64, 2)
	mustPanic("FillPlane", func() { FillPlane(NewSplitMix64(1), 0.5, 100, short) })
	mustPanic("FillAbsDiffPlane", func() { FillAbsDiffPlane(NewSplitMix64(1), 0.5, 0.5, 100, short) })
	mustPanic("AndPlanes", func() { AndPlanes(ok, ok, short) })
	mustPanic("MuxPlanes", func() { MuxPlanes(ok, short, ok, ok) })
	mustPanic("SplitPlane", func() { SplitPlane(short, 100) })
}

// TestSplitPlane: the two clock sets partition [0, n) by the select
// bit, ascending, each clock held as its counter offset.
func TestSplitPlane(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 1000} {
		sel := make([]uint64, WordsFor(n))
		FillPlane(NewSplitMix64(8), 0.5, n, sel)
		zeros, ones := SplitPlane(sel, n)
		if len(zeros.ctr)+len(ones.ctr) != n || len(ones.ctr) != PlaneOnes(sel) {
			t.Fatalf("n=%d: split %d + %d of %d set", n, len(zeros.ctr), len(ones.ctr), PlaneOnes(sel))
		}
		var z, o int
		for clk := 0; clk < n; clk++ {
			if sel[clk/64]>>uint(clk%64)&1 == 0 {
				if zeros.ctr[z] != splitMixCounter(clk) {
					t.Fatalf("n=%d: zero clock %d holds %x", n, clk, zeros.ctr[z])
				}
				z++
			} else {
				if ones.ctr[o] != splitMixCounter(clk) {
					t.Fatalf("n=%d: one clock %d holds %x", n, clk, ones.ctr[o])
				}
				o++
			}
		}
	}
}

// TestAbsDiffOnesMatchesMaskedPlane is the identity of the
// counter-indexed edge kernel: over each route of a ½-select, its
// count equals the ones of FillAbsDiffPlane's plane masked to that
// route (the MuxPlanes+PlaneOnes reference), including degenerate and
// equal values and seeds whose state wraps past 2^64.
func TestAbsDiffOnesMatchesMaskedPlane(t *testing.T) {
	seeds := []uint64{0, 7, 1<<64 - 1, 1<<64 - 3000, 1<<64 - splitMixGamma}
	pairs := [][2]float64{{0.3, 0.7}, {0, 1}, {1, 0}, {0.5, 0.5}, {0, 0}, {1, 1}, {0.999, 0.001}}
	for _, n := range []int{1, 63, 64, 65, 1000, 4096} {
		words := WordsFor(n)
		sel := make([]uint64, words)
		FillPlane(NewSplitMix64(uint64(n)), 0.5, n, sel)
		zeros, ones := SplitPlane(sel, n)
		none := make([]uint64, words)
		d := make([]uint64, words)
		routed := make([]uint64, words)
		for _, seed := range seeds {
			for _, pair := range pairs {
				a, b := pair[0], pair[1]
				FillAbsDiffPlane(NewSplitMix64(seed), a, b, n, d)
				MuxPlanes(routed, sel, d, none)
				if got, want := AbsDiffOnes(seed, a, b, zeros), PlaneOnes(routed); got != want {
					t.Fatalf("n=%d seed %x (%g,%g) sel=0: %d vs %d", n, seed, a, b, got, want)
				}
				MuxPlanes(routed, sel, none, d)
				if got, want := AbsDiffOnes(seed, a, b, ones), PlaneOnes(routed); got != want {
					t.Fatalf("n=%d seed %x (%g,%g) sel=1: %d vs %d", n, seed, a, b, got, want)
				}
			}
		}
	}
}

func TestSplitMix64Reseed(t *testing.T) {
	s := NewSplitMix64(7)
	first := s.NextUint64()
	s.NextUint64()
	s.Reseed(7)
	if got := s.NextUint64(); got != first {
		t.Errorf("reseeded sequence diverged: %x vs %x", got, first)
	}
}
