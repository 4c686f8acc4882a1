package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/figures"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden instead of comparing")

// goldenAllPath pins `oscbench -fig all -grid 4 -sweep 5` stdout.
var goldenAllPath = filepath.Join("..", "..", "testdata", "golden", "oscbench_all_grid4_sweep5.txt")

// TestGoldenFigAll pins the full figure dump byte for byte, so a change
// that shifts the reference engine itself (which every cross-engine
// comparison would miss) shows up as a reviewed golden diff. Refresh
// with `go test ./cmd/oscbench -run Golden -update`.
func TestGoldenFigAll(t *testing.T) {
	cfg := figures.Defaults()
	cfg.GridN, cfg.SweepN = 4, 5
	var out bytes.Buffer
	if err := run(context.Background(), &out, "all", cfg, 0, false); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(goldenAllPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenAllPath)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create it): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("oscbench -fig all -grid 4 -sweep 5 differs from %s; if the change is intended, rerun with -update and review the diff", goldenAllPath)
	}
}
