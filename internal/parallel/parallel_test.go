package parallel

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForCoversAllIndicesOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1000} {
		counts := make([]atomic.Int32, n)
		For(n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, got)
			}
		}
	}
}

func TestForWorkerCoversAllIndicesWithValidWorkers(t *testing.T) {
	for _, n := range []int{1, 7, 500} {
		// Caller-supplied counts (clamped to [1, n]) and the
		// workers<=0 auto-size must both keep worker in bounds.
		for _, workers := range []int{0, 1, 3, n + 5} {
			counts := make([]atomic.Int32, n)
			maxWorker := workers
			if maxWorker < 1 {
				maxWorker = Workers(n)
			}
			if maxWorker > n {
				maxWorker = n
			}
			var bad atomic.Int32
			if err := Run(context.Background(), n, workers, func(worker, i int) {
				if worker < 0 || worker >= maxWorker {
					bad.Add(1)
				}
				counts[i].Add(1)
			}); err != nil {
				t.Fatal(err)
			}
			if bad.Load() != 0 {
				t.Fatalf("n=%d workers=%d: %d calls with worker outside [0,%d)",
					n, workers, bad.Load(), maxWorker)
			}
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, got)
				}
			}
		}
	}
}

// TestForWorkerScratchExclusive: per-worker scratch is never touched
// by two goroutines at once — the contract tiled engines rely on.
// `go test -race` turns any violation into a hard failure.
func TestForWorkerScratchExclusive(t *testing.T) {
	const n = 200
	workers := Workers(n)
	scratch := make([][]int, workers)
	if err := Run(context.Background(), n, workers, func(worker, i int) {
		scratch[worker] = append(scratch[worker], i)
	}); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range scratch {
		total += len(s)
	}
	if total != n {
		t.Errorf("scratch items = %d, want %d", total, n)
	}
}

func TestForNegative(t *testing.T) {
	ran := false
	For(-3, func(i int) { ran = true })
	if ran {
		t.Error("negative n ran the body")
	}
}

func TestWorkersRespectsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if w := Workers(64); w != 1 {
		t.Errorf("Workers(64) under GOMAXPROCS(1) = %d", w)
	}
}

func TestWorkersBounds(t *testing.T) {
	if w := Workers(0); w != 1 {
		t.Errorf("Workers(0) = %d", w)
	}
	if w := Workers(1); w != 1 {
		t.Errorf("Workers(1) = %d", w)
	}
	if w := Workers(1 << 20); w < 1 {
		t.Errorf("Workers(big) = %d", w)
	}
}
