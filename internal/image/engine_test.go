package image

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/enginetest"
)

// TestEngineSuite registers every engine-accepting entry point of this
// package into the generic cross-engine equivalence and
// GOMAXPROCS-determinism suite, replacing the former per-path
// MatchesSerial / GOMAXPROCSDeterminism tests. The edge cases keep the
// ragged geometries of the old table: odd dimensions and
// non-word-multiple stream lengths exercise tile remainders and plane
// tails.
func TestEngineSuite(t *testing.T) {
	ctx := context.Background()
	cases := []enginetest.Case{
		{
			Name: "image.GammaVideo",
			Eval: func(e engine.Engine) (any, error) {
				return GammaVideo(ctx, e, videoFrames(), 0.45, 6, 0.3, 256, 9, nil)
			},
		},
		{
			Name: "image.GammaVideoPerFrame",
			Eval: func(e engine.Engine) (any, error) {
				return GammaVideoPerFrame(ctx, e, videoFrames(), 0.45, 6, 0.3, 256, 9, nil)
			},
		},
	}
	for _, tc := range []struct {
		name            string
		w, h, streamLen int
		seed            uint64
	}{
		{"16x16", 16, 16, 1024, 9},
		{"ragged-tiles", 21, 13, 100, 3}, // stream tail, ragged tiles
		{"one-word", 33, 9, 64, 77},      // exactly one word
		{"single-bit", 5, 30, 1, 5},      // single-bit streams
		{"example", 64, 64, 2048, 7},     // the example's configuration
	} {
		tc := tc
		cases = append(cases, enginetest.Case{
			Name: "image.RobertsCrossSC/" + tc.name,
			Eval: func(e engine.Engine) (any, error) {
				src := Checkerboard(tc.w, tc.h, 4, 40, 210)
				return RobertsCrossSC(ctx, e, src, tc.streamLen, tc.seed)
			},
		})
	}
	enginetest.Run(t, nil, cases)
}

// TestSerialShims pins the serial oracle onto the engine layer: each
// entry point on engine.Serial equals the word-parallel run.
func TestSerialShims(t *testing.T) {
	ctx := context.Background()
	src := Checkerboard(21, 13, 4, 40, 210)
	edgeSerial, err := RobertsCrossSC(ctx, engine.Serial, src, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	edge, err := RobertsCrossSC(ctx, engine.WordParallel, src, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	assertFramesEqual(t, "RobertsCrossSC serial vs parallel", []*Gray{edgeSerial}, []*Gray{edge})

	frames := videoFrames()
	vidSerial, err := GammaVideo(ctx, engine.Serial, frames, 0.45, 6, 0.3, 256, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	vid, err := GammaVideo(ctx, engine.WordParallel, frames, 0.45, 6, 0.3, 256, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertFramesEqual(t, "GammaVideo serial vs parallel", vidSerial, vid)

	pfSerial, err := GammaVideoPerFrame(ctx, engine.Serial, frames, 0.45, 6, 0.3, 256, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := GammaVideoPerFrame(ctx, engine.WordParallel, frames, 0.45, 6, 0.3, 256, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertFramesEqual(t, "GammaVideoPerFrame serial vs parallel", pfSerial, pf)
}

func assertFramesEqual(t *testing.T, name string, want, got []*Gray) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d frames", name, len(want), len(got))
	}
	for f := range want {
		if want[f].W != got[f].W || want[f].H != got[f].H {
			t.Fatalf("%s: frame %d dimensions differ", name, f)
		}
		for i := range want[f].Pix {
			if want[f].Pix[i] != got[f].Pix[i] {
				t.Fatalf("%s: frame %d pixel %d: %d vs %d", name, f, i, want[f].Pix[i], got[f].Pix[i])
			}
		}
	}
}

// TestNilEngineMisuse: all three entry points report a nil engine as a
// clean error (they all have error returns).
func TestNilEngineMisuse(t *testing.T) {
	ctx := context.Background()
	src := Checkerboard(8, 8, 2, 0, 255)
	if _, err := RobertsCrossSC(ctx, nil, src, 64, 1); err == nil {
		t.Error("RobertsCrossSC(nil) did not error")
	}
	frames := []*Gray{Gradient(8, 8)}
	if _, err := GammaVideo(ctx, nil, frames, 0.45, 6, 0.3, 64, 1, nil); err == nil {
		t.Error("GammaVideo(nil) did not error")
	}
	if _, err := GammaVideoPerFrame(ctx, nil, frames, 0.45, 6, 0.3, 64, 1, nil); err == nil {
		t.Error("GammaVideoPerFrame(nil) did not error")
	}
}
