package image

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/stochastic"
)

func TestRobertsCrossExactOnStep(t *testing.T) {
	// A vertical step edge: detector fires along the boundary only.
	img := NewGray(8, 8)
	for y := 0; y < 8; y++ {
		for x := 4; x < 8; x++ {
			img.Set(x, y, 255)
		}
	}
	e := RobertsCrossExact(img)
	// Column 3/4 boundary: both diagonal differences are 1 for
	// pixels straddling the edge.
	if e.At(3, 2) < 200 {
		t.Errorf("edge response %d at boundary", e.At(3, 2))
	}
	// Flat regions: zero response.
	if e.At(0, 0) != 0 || e.At(6, 3) != 0 {
		t.Errorf("flat response %d / %d", e.At(0, 0), e.At(6, 3))
	}
}

func TestRobertsCrossSCMatchesExact(t *testing.T) {
	src := Checkerboard(16, 16, 4, 40, 210)
	exact := RobertsCrossExact(src)
	sc, err := RobertsCrossSC(context.Background(), engine.WordParallel, src, 2048, 9)
	if err != nil {
		t.Fatal(err)
	}
	// The SC detector must agree within a few gray levels on
	// average; correlated XOR makes |a-b| exact up to stream
	// quantization.
	if mae := MeanAbsoluteError(exact, sc); mae > 6 {
		t.Errorf("SC edge MAE = %.2f levels", mae)
	}
	if psnr := PSNR(exact, sc); psnr < 25 {
		t.Errorf("SC edge PSNR = %.1f dB", psnr)
	}
}

func TestRobertsCrossSCEdgesFire(t *testing.T) {
	img := NewGray(8, 8)
	for y := 0; y < 8; y++ {
		for x := 4; x < 8; x++ {
			img.Set(x, y, 255)
		}
	}
	e, err := RobertsCrossSC(context.Background(), engine.WordParallel, img, 1024, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e.At(3, 2) < 180 {
		t.Errorf("SC edge response %d", e.At(3, 2))
	}
	if e.At(0, 0) > 20 {
		t.Errorf("SC flat response %d", e.At(0, 0))
	}
}

func TestRobertsCrossGradientQuiet(t *testing.T) {
	// A gentle ramp has small derivatives: responses stay low.
	src := Gradient(64, 8)
	e := RobertsCrossExact(src)
	for x := 0; x < 62; x++ {
		if e.At(x, 3) > 10 {
			t.Fatalf("ramp response %d at x=%d", e.At(x, 3), x)
		}
	}
}

func TestRobertsCrossSCErrors(t *testing.T) {
	src := Checkerboard(8, 8, 2, 0, 255)
	if _, err := RobertsCrossSC(context.Background(), engine.WordParallel, src, 0, 1); err == nil {
		t.Error("packed: zero stream length accepted")
	}
	if _, err := RobertsCrossSC(context.Background(), engine.WordParallel, src, -5, 1); err == nil {
		t.Error("packed: negative stream length accepted")
	}
	if _, err := RobertsCrossSC(context.Background(), engine.Serial, src, 0, 1); err == nil {
		t.Error("serial: zero stream length accepted")
	}
}

// TestRobertsCrossSCDegenerateDims: images with no interior 2x2
// window come back all dark without touching the engine.
func TestRobertsCrossSCDegenerateDims(t *testing.T) {
	for _, dims := range [][2]int{{1, 8}, {8, 1}, {1, 1}} {
		out, err := RobertsCrossSC(context.Background(), engine.WordParallel, NewGray(dims[0], dims[1]), 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range out.Pix {
			if p != 0 {
				t.Fatalf("%dx%d: pixel %d = %d", dims[0], dims[1], i, p)
			}
		}
	}
}

// TestImageQualityRegression pins the PSNR of both canonical image
// workloads at fixed seeds, so engine rewrites cannot silently degrade
// quality: both paths are deterministic, and these floors sit a few
// dB under the measured 47.4 dB (edge) and 39.3 dB (gamma).
func TestImageQualityRegression(t *testing.T) {
	edgeSrc := Checkerboard(64, 64, 8, 30, 220)
	sc, err := RobertsCrossSC(context.Background(), engine.WordParallel, edgeSrc, 2048, 7)
	if err != nil {
		t.Fatal(err)
	}
	if psnr := PSNR(RobertsCrossExact(edgeSrc), sc); psnr < 44 {
		t.Errorf("edge PSNR regressed to %.2f dB", psnr)
	}

	gammaSrc := Gradient(128, 4)
	g, err := GammaReSC(gammaSrc, 0.45, 6, 4096, 11)
	if err != nil {
		t.Fatal(err)
	}
	if psnr := PSNR(GammaExact(gammaSrc, 0.45), g); psnr < 36 {
		t.Errorf("gamma PSNR regressed to %.2f dB", psnr)
	}
}

// referenceRobertsCross is the plane pipeline the counter-indexed
// kernel must reproduce: per pixel, both absolute-difference planes
// (FillAbsDiffPlane), the ½-select multiplex (MuxPlanes) and its ones
// count (PlaneOnes), with no elision.
func referenceRobertsCross(src *Gray, streamLen int, seed uint64) *Gray {
	out := NewGray(src.W, src.H)
	words := stochastic.WordsFor(streamLen)
	sel := make([]uint64, words)
	stochastic.FillPlane(stochastic.NewSplitMix64(seed^selSalt), 0.5, streamLen, sel)
	d1 := make([]uint64, words)
	d2 := make([]uint64, words)
	e := make([]uint64, words)
	lvl := func(x, y int) float64 { return float64(src.At(x, y)) / 255 }
	for y := 0; y < src.H-1; y++ {
		for x := 0; x < src.W-1; x++ {
			s1, s2 := pixelSeeds(seed, y*src.W+x)
			stochastic.FillAbsDiffPlane(stochastic.NewSplitMix64(s1), lvl(x, y), lvl(x+1, y+1), streamLen, d1)
			stochastic.FillAbsDiffPlane(stochastic.NewSplitMix64(s2), lvl(x+1, y), lvl(x, y+1), streamLen, d2)
			stochastic.MuxPlanes(e, sel, d1, d2)
			out.Set(x, y, quantize(float64(stochastic.PlaneOnes(e))/float64(streamLen)))
		}
	}
	return out
}

// TestRobertsCrossSCMatchesPlanePipeline is the identity of the
// counter-indexed edge kernel: on a checkerboard (flat windows, so the
// elision fires), a dense radial image and random pixels with the
// extreme levels 0 and 255, every output pixel equals the plane
// pipeline's, across awkward lengths and seeds near 2^64, on the
// serial and the parallel engine.
func TestRobertsCrossSCMatchesPlanePipeline(t *testing.T) {
	noise := NewGray(9, 7)
	rng := stochastic.NewSplitMix64(3)
	for i := range noise.Pix {
		noise.Pix[i] = []uint8{0, 255, uint8(rng.NextUint64())}[rng.NextUint64()%3]
	}
	images := map[string]*Gray{
		"board":  Checkerboard(10, 9, 3, 30, 220),
		"radial": Radial(9, 8),
		"noise":  noise,
	}
	for _, name := range []string{"board", "radial", "noise"} {
		src := images[name]
		for _, streamLen := range []int{1, 63, 64, 65, 1000, 4096} {
			for _, seed := range []uint64{7, 1<<64 - 1, 1<<64 - 3} {
				want := referenceRobertsCross(src, streamLen, seed)
				for _, e := range []engine.Engine{engine.Serial, engine.WordParallel} {
					got, err := RobertsCrossSC(context.Background(), e, src, streamLen, seed)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want.Pix {
						if got.Pix[i] != want.Pix[i] {
							t.Fatalf("%s len %d seed %x %s: pixel %d = %d, want %d",
								name, streamLen, seed, e.Name(), i, got.Pix[i], want.Pix[i])
						}
					}
				}
			}
		}
	}
}
