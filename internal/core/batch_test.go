package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/stochastic"
)

// gammaUnit builds a degree-6 optical unit (the §V.C application
// order) for the packed-path tests.
func gammaUnit(t *testing.T, seed uint64) *Unit {
	t.Helper()
	poly, _, err := stochastic.GammaCorrection(0.45, 6)
	if err != nil {
		t.Fatal(err)
	}
	p, err := MRRFirst(MRRFirstSpec{Order: 6, WLSpacingNM: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCircuit(p)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUnit(c, poly, seed)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestUnitEvaluateWordsMatchesEvaluate is the optical-side tentpole
// equivalence: the word-parallel datapath must emit the same
// bitstream as the bit-serial Step loop, for the order-2 paper design
// and the order-6 gamma design, across seeds and awkward lengths.
func TestUnitEvaluateWordsMatchesEvaluate(t *testing.T) {
	builders := map[string]func(*testing.T, uint64) *Unit{
		"paper-order2": paperUnit,
		"gamma-order6": gammaUnit,
	}
	for name, build := range builders {
		for _, seed := range []uint64{3, 1234} {
			serial := build(t, seed)
			packed := build(t, seed)
			for _, length := range []int{1, 63, 64, 65, 500} {
				for _, x := range []float64{0, 0.3, 0.8, 1} {
					vs, bs := serial.Evaluate(x, length)
					vp, bp := packed.EvaluateWords(x, length)
					if vs != vp {
						t.Fatalf("%s seed %d len %d x=%g: value %g vs %g", name, seed, length, x, vs, vp)
					}
					for w := 0; w < bs.WordCount(); w++ {
						if bs.Word(w) != bp.Word(w) {
							t.Fatalf("%s seed %d len %d x=%g: word %d %x vs %x",
								name, seed, length, x, w, bs.Word(w), bp.Word(w))
						}
					}
				}
			}
		}
	}
}

// packedSeeded is the word-parallel reference for one batch input:
// evalPacked on the generators seededSNGs derives from seed.
func packedSeeded(u *Unit, seed uint64, x float64, length int) float64 {
	data, coef := seededSNGs(u.Circuit.P.Order, seed)
	return u.evalPacked(u.decisionTable(), data, coef, x, length).Value()
}

func TestUnitEvaluateBatchMatchesSeededOracle(t *testing.T) {
	u := paperUnit(t, 21)
	oracle := paperUnit(t, 21)
	xs := []float64{0, 0.2, 0.5, 0.9, 1}
	const length = 300
	got := u.EvaluateBatch(xs, length)
	if len(got) != len(xs) {
		t.Fatalf("batch length %d", len(got))
	}
	for i, x := range xs {
		want := packedSeeded(oracle, stochastic.DeriveSeed(oracle.seed, i), x, length)
		if got[i] != want {
			t.Errorf("x[%d]=%g: batch %g vs seeded oracle %g", i, x, got[i], want)
		}
	}
	again := paperUnit(t, 21).EvaluateBatch(xs, length)
	for i := range got {
		if got[i] != again[i] {
			t.Errorf("batch not reproducible at %d: %g vs %g", i, got[i], again[i])
		}
	}
}

// spacedUnit builds a unit for poly on an MRR-first circuit of the
// polynomial's order at the given channel spacing.
func spacedUnit(t *testing.T, poly stochastic.BernsteinPoly, spacingNM float64, seed uint64) *Unit {
	t.Helper()
	p, err := MRRFirst(MRRFirstSpec{Order: poly.Degree(), WLSpacingNM: spacingNM})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCircuit(p)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUnit(c, poly, seed)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// rowReads returns the coefficients each of the unit's decision rows
// reads.
func rowReads(u *Unit) [][]int {
	rows := decisionRows(u.decisionTable(), u.Circuit.P.Order)
	reads := make([][]int, len(rows))
	for w, r := range rows {
		reads[w] = r.Reads
	}
	return reads
}

// TestDecisionRowsOfDesigns pins the rows the batch kernel reads: the
// open-eye gamma design reads the selected channel only, while the
// order-2 circuit at 0.1 nm spacing has crosstalk wide enough that its
// rows read several coefficients.
func TestDecisionRowsOfDesigns(t *testing.T) {
	poly, _, err := stochastic.GammaCorrection(0.45, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(rowReads(spacedUnit(t, poly, 0.3, 1))); got != "[[0] [1] [2] [3] [4] [5] [6]]" {
		t.Errorf("gamma design at 0.3 nm reads %s", got)
	}
	narrow := spacedUnit(t, stochastic.NewBernstein([]float64{0.2, 0.5, 0.9}), 0.1, 1)
	if got := fmt.Sprint(rowReads(narrow)); got != "[[0 1] [0 1] [0 1 2]]" {
		t.Errorf("order 2 at 0.1 nm reads %s", got)
	}
}

// TestUnitEvaluateBatchMatchesPacked is the identity of the
// counter-indexed batch kernel against the word-parallel reference:
// every one of the 256 gray levels plus x in {0, 1}, coefficient
// vectors with degenerate entries, awkward lengths and seeds whose
// source states wrap past 2^64, on open-eye designs and on a degraded
// circuit whose rows read several coefficients.
func TestUnitEvaluateBatchMatchesPacked(t *testing.T) {
	xs := []float64{0, 1}
	for v := 0; v < 256; v++ {
		xs = append(xs, float64(v)/255)
	}
	gamma, _, err := stochastic.GammaCorrection(0.45, 6)
	if err != nil {
		t.Fatal(err)
	}
	designs := []struct {
		name      string
		poly      stochastic.BernsteinPoly
		spacingNM float64
	}{
		{"gamma-0.3nm", gamma, 0.3},
		{"degenerate-0.3nm", stochastic.NewBernstein([]float64{0, 1, 0.3, 1, 0}), 0.3},
		{"order2-0.1nm", stochastic.NewBernstein([]float64{0.2, 0.5, 0.9}), 0.1},
		{"order2-0.1nm-degenerate", stochastic.NewBernstein([]float64{0, 0.6, 1}), 0.1},
	}
	wide := false
	for _, d := range designs {
		for _, seed := range []uint64{12, 1<<64 - 1, 1<<64 - 0x5DEECE66D} {
			u := spacedUnit(t, d.poly, d.spacingNM, seed)
			for _, reads := range rowReads(u) {
				wide = wide || len(reads) >= 2
			}
			for _, length := range []int{1, 63, 64, 65, 1000, 4096} {
				got := u.EvaluateBatch(xs, length)
				for i, x := range xs {
					if want := packedSeeded(u, stochastic.DeriveSeed(seed, i), x, length); got[i] != want {
						t.Fatalf("%s seed %x len %d x[%d]=%g: batch %g vs packed %g", d.name, seed, length, i, x, got[i], want)
					}
				}
			}
		}
	}
	if !wide {
		t.Error("no design has a row reading 2+ coefficients: the wide-row path went untested")
	}
}

// TestDecisionRowsMatchBitset checks the word-wise row reduction
// against its per-bit definition on random bitsets for orders 1-7
// (rows narrower and wider than a word): a coefficient is read iff
// flipping its bit changes some decision, and the truth table
// reproduces every decision of the row.
func TestDecisionRowsMatchBitset(t *testing.T) {
	src := stochastic.NewSplitMix64(5)
	for n := 1; n <= 7; n++ {
		n1 := n + 1
		for trial := 0; trial < 20; trial++ {
			dec := make([]uint64, (n1<<n1+63)/64)
			for i := range dec {
				switch trial % 4 {
				case 0: // every row is z0
					dec[i] = 0xAAAAAAAAAAAAAAAA
				case 1: // constant rows but one bit
					dec[i] = 0
				default: // random, at two densities
					dec[i] = src.NextUint64() & src.NextUint64()
					if trial%4 == 3 {
						dec[i] |= src.NextUint64()
					}
				}
			}
			if trial%4 == 1 {
				i := int(src.NextUint64() % uint64(n1<<n1))
				dec[i/64] |= 1 << uint(i%64)
			}
			bit := func(w, z int) int { i := w<<n1 | z; return int(dec[i/64] >> uint(i%64) & 1) }
			for w, row := range decisionRows(dec, n) {
				var want []int
				for i := 0; i < n1; i++ {
					for z := 0; z < 1<<n1; z++ {
						if bit(w, z) != bit(w, z^1<<i) {
							want = append(want, i)
							break
						}
					}
				}
				if fmt.Sprint(row.Reads) != fmt.Sprint(want) {
					t.Fatalf("n=%d trial %d row %d: reads %v, want %v", n, trial, w, row.Reads, want)
				}
				for z := 0; z < 1<<n1; z++ {
					m := 0
					for j, c := range row.Reads {
						m |= (z >> c & 1) << j
					}
					if got := int(row.Table[m/64] >> uint(m%64) & 1); got != bit(w, z) {
						t.Fatalf("n=%d trial %d row %d zmask %b: table %d, want %d", n, trial, w, z, got, bit(w, z))
					}
				}
			}
		}
	}
}

// TestUnitEvalSeededFallbackMatchesPacked pins the cache-free serial
// walk (the batch path beyond maxTableOrder) to the packed path on a
// tabulatable order, so the two implementations cannot drift.
func TestUnitEvalSeededFallbackMatchesPacked(t *testing.T) {
	u := paperUnit(t, 17)
	if u.decisionTable() == nil {
		t.Fatal("order 2 should tabulate")
	}
	for i, x := range []float64{0, 0.4, 1} {
		seed := stochastic.DeriveSeed(99, i)
		packed := packedSeeded(u, seed, x, 257)
		data, coef := seededSNGs(u.Circuit.P.Order, seed)
		if serial := u.walkSeeded(data, coef, x, 257, nil, nil); packed != serial {
			t.Errorf("x=%g: packed %g vs serial fallback %g", x, packed, serial)
		}
	}
}

func TestUnitEvaluateBatchAccuracy(t *testing.T) {
	u := paperUnit(t, 2024)
	xs := []float64{0, 0.25, 0.5, 0.75, 1}
	got := u.EvaluateBatch(xs, 1<<15)
	for i, x := range xs {
		want := u.Poly.Eval(x)
		if math.Abs(got[i]-want) > 0.015 {
			t.Errorf("x=%g: batch %g vs analytic %g", x, got[i], want)
		}
	}
}

// TestUnitEvaluateBatchRace exercises concurrent EvaluateBatch calls
// on one shared unit (shared decision table, per-index sources);
// `go test -race` turns it into a data-race check.
func TestUnitEvaluateBatchRace(t *testing.T) {
	u := paperUnit(t, 8)
	xs := make([]float64, 48)
	for i := range xs {
		xs[i] = float64(i) / 47
	}
	done := make(chan []float64, 4)
	for g := 0; g < 4; g++ {
		go func() { done <- u.EvaluateBatch(xs, 256) }()
	}
	first := <-done
	for g := 1; g < 4; g++ {
		other := <-done
		for i := range first {
			if first[i] != other[i] {
				t.Fatalf("concurrent batches disagree at %d: %g vs %g", i, first[i], other[i])
			}
		}
	}
}

func BenchmarkUnitEvaluateSerial(b *testing.B) {
	c := MustCircuit(PaperParams())
	u, err := NewUnit(c, stochastic.NewBernstein([]float64{0.25, 0.625, 0.75}), 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Evaluate(0.5, 4096)
	}
}

func BenchmarkUnitEvaluateWords(b *testing.B) {
	c := MustCircuit(PaperParams())
	u, err := NewUnit(c, stochastic.NewBernstein([]float64{0.25, 0.625, 0.75}), 3)
	if err != nil {
		b.Fatal(err)
	}
	u.decisionTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.EvaluateWords(0.5, 4096)
	}
}

func BenchmarkUnitEvaluateBatch(b *testing.B) {
	c := MustCircuit(PaperParams())
	u, err := NewUnit(c, stochastic.NewBernstein([]float64{0.25, 0.625, 0.75}), 3)
	if err != nil {
		b.Fatal(err)
	}
	xs := make([]float64, 256)
	for i := range xs {
		xs[i] = float64(i) / 255
	}
	u.decisionTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.EvaluateBatch(xs, 4096)
	}
}
