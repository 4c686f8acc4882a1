package dse

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/stochastic"
)

func TestSweepOrdersResults(t *testing.T) {
	got, err := Sweep(ctx, engine.WordParallel, 100, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("index %d: got %d", i, v)
		}
	}
	for _, n := range []int{0, -3} {
		if got, err := Sweep(ctx, engine.WordParallel, n, func(int) (int, error) { return 1, nil }); err != nil || len(got) != 0 {
			t.Errorf("Sweep(n=%d) = %v, %v, want empty", n, got, err)
		}
	}
}

func TestSweepErrReturnsLowestIndexError(t *testing.T) {
	_, err := Sweep(ctx, engine.WordParallel, 10, func(i int) (int, error) {
		if i%3 == 2 { // fails at 2, 5, 8
			return 0, fmt.Errorf("point %d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "point 2" {
		t.Fatalf("err = %v, want the lowest failing index", err)
	}
	got, err := Sweep(ctx, engine.WordParallel, 4, func(i int) (int, error) { return i + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
		t.Fatalf("got %v", got)
	}
}

// TestSweepSeededDerivesPerPointSeeds: point functions derive their
// seeds from (base, index) alone — the NoiseStudy pattern — so seeds
// are reproducible, distinct per point and distinct per base.
func TestSweepSeededDerivesPerPointSeeds(t *testing.T) {
	seeds := func(base uint64) []uint64 {
		t.Helper()
		out, err := Sweep(ctx, engine.WordParallel, 8, func(i int) (uint64, error) {
			return stochastic.DeriveSeed(base, i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := seeds(42), seeds(42)
	if !reflect.DeepEqual(a, b) {
		t.Error("seeded sweep not reproducible")
	}
	seen := map[uint64]bool{}
	for _, s := range a {
		if seen[s] {
			t.Fatalf("duplicate derived seed %d", s)
		}
		seen[s] = true
	}
	if reflect.DeepEqual(a, seeds(43)) {
		t.Error("different base seeds derived identical point seeds")
	}
}

// TestGridRowMajorOrder: a grid is a sweep over rows*cols points
// decoded row-major — the Fig. 5(c) and Fig. 6(a) layout.
func TestGridRowMajorOrder(t *testing.T) {
	const rows, cols = 3, 4
	got, err := Sweep(ctx, engine.WordParallel, rows*cols, func(i int) ([2]int, error) {
		return [2]int{i / cols, i % cols}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, cell := range got {
		if cell != [2]int{i / 4, i % 4} {
			t.Fatalf("cell %d = %v", i, cell)
		}
	}
	pts, err := Fig6A(ctx, engine.WordParallel, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].ILdB < pts[i-1].ILdB {
			t.Fatalf("Fig6A cell %d breaks IL-major order: %v after %v", i, pts[i], pts[i-1])
		}
	}
}

// withGOMAXPROCS runs f at the given GOMAXPROCS, restoring the old
// value afterwards.
func withGOMAXPROCS(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// assertDeterministic evaluates gen at GOMAXPROCS 1 and 4 and requires
// deeply equal results — the contract every rewired figure sweep
// carries.
func assertDeterministic[T any](t *testing.T, name string, gen func() (T, error)) {
	t.Helper()
	var single, multi T
	var errSingle, errMulti error
	withGOMAXPROCS(1, func() { single, errSingle = gen() })
	withGOMAXPROCS(4, func() { multi, errMulti = gen() })
	if (errSingle == nil) != (errMulti == nil) {
		t.Fatalf("%s: errors differ: %v vs %v", name, errSingle, errMulti)
	}
	if errSingle != nil {
		t.Fatalf("%s: %v", name, errSingle)
	}
	if !reflect.DeepEqual(single, multi) {
		t.Errorf("%s: GOMAXPROCS=1 and 4 disagree\n  1: %+v\n  4: %+v", name, single, multi)
	}
}

func TestFig6ADeterministicAcrossGOMAXPROCS(t *testing.T) {
	assertDeterministic(t, "Fig6A", func() ([]Fig6APoint, error) {
		return Fig6A(ctx, engine.WordParallel, 4, 3)
	})
}

func TestFig6BDeterministicAcrossGOMAXPROCS(t *testing.T) {
	assertDeterministic(t, "Fig6B", func() ([]Fig6BPoint, error) {
		return Fig6B(ctx, engine.WordParallel, []float64{1e-2, 1e-4, 1e-6})
	})
}

func TestFig6CDeterministicAcrossGOMAXPROCS(t *testing.T) {
	assertDeterministic(t, "Fig6C", func() ([]Fig6CPoint, error) {
		pts, err := Fig6C(ctx, engine.WordParallel)
		// Errors carry unstable fmt pointers; compare the data fields.
		for i := range pts {
			pts[i].Err = nil
		}
		return pts, err
	})
}

func TestFig7ADeterministicAcrossGOMAXPROCS(t *testing.T) {
	assertDeterministic(t, "Fig7A", func() ([]Fig7ASeries, error) {
		return Fig7A(ctx, engine.WordParallel, []int{2, 4}, 7)
	})
}

func TestFig7BDeterministicAcrossGOMAXPROCS(t *testing.T) {
	assertDeterministic(t, "Fig7B", func() ([]Fig7BRow, error) {
		return Fig7B(ctx, engine.WordParallel, []int{2, 4})
	})
}

func TestRingSensitivityDeterministicAcrossGOMAXPROCS(t *testing.T) {
	assertDeterministic(t, "RingSensitivity", func() ([]RingSensitivityRow, error) {
		return RingSensitivity(ctx, engine.WordParallel, []float64{0.75, 1.0, 1.25})
	})
}

func TestNoiseStudyDeterministicAcrossGOMAXPROCS(t *testing.T) {
	spec := NoiseStudySpec{
		X:       0.5,
		Lengths: []int{64, 128},
		ProbeMW: []float64{1, 0.5},
		Trials:  4,
		BERBits: 2_000,
		Seed:    21,
	}
	assertDeterministic(t, "NoiseStudy", func() ([]NoiseRow, error) {
		return NoiseStudy(ctx, engine.WordParallel, spec)
	})
}

func TestEdgeStudyDeterministicAcrossGOMAXPROCS(t *testing.T) {
	assertDeterministic(t, "EdgeStudy", func() ([]EdgeStudyRow, error) {
		return EdgeStudy(ctx, engine.WordParallel, []int{64, 128}, 7)
	})
}

func TestStreamLengthSweepDeterministicAcrossGOMAXPROCS(t *testing.T) {
	assertDeterministic(t, "StreamLengthSweep", func() ([]StreamSweepRow, error) {
		return StreamLengthSweep(ctx, engine.WordParallel, []int{64, 128}, 5, 9)
	})
}
