package engine

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
)

// TestSerialEngineOrdering: the reference engine runs indices in
// ascending order, inline, with worker identity 0 throughout.
func TestSerialEngineOrdering(t *testing.T) {
	var order []int
	if err := Serial.Run(context.Background(), 5, Serial.Workers(5), func(w, i int) {
		if w != 0 {
			t.Fatalf("serial worker identity %d", w)
		}
		order = append(order, i)
	}); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("Run order %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("Run ran %d of 5 items", len(order))
	}
	if Serial.Workers(100) != 1 {
		t.Fatalf("serial Workers(100) = %d", Serial.Workers(100))
	}
	if Serial.Name() != "serial" {
		t.Fatalf("serial Name %q", Serial.Name())
	}
}

// TestWordParallelEngineCoversAllIndices: the pooled engine visits
// every index exactly once and honors its advertised worker bound —
// the exactly-once half of the contract, under -race.
func TestWordParallelEngineCoversAllIndices(t *testing.T) {
	const n = 257
	workers := WordParallel.Workers(n)
	if workers < 1 || workers > n {
		t.Fatalf("Workers(%d) = %d out of range", n, workers)
	}
	for _, w := range []int{0, workers} {
		visits := make([]int32, n)
		if err := WordParallel.Run(context.Background(), n, w, func(worker, i int) {
			if worker < 0 || worker >= workers {
				t.Errorf("worker %d outside [0, %d)", worker, workers)
			}
			atomic.AddInt32(&visits[i], 1)
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("Run(workers=%d) visited index %d %d times", w, i, v)
			}
		}
	}
}

// TestRegistryResolution: the built-ins resolve by name and are the
// only names listed; unknown, empty and test-fixture names error
// cleanly, naming the available engines.
func TestRegistryResolution(t *testing.T) {
	for _, want := range []Engine{Serial, WordParallel} {
		got, err := Get(want.Name())
		if err != nil || got != want {
			t.Fatalf("Get(%q) = %v, %v", want.Name(), got, err)
		}
	}
	for _, bogus := range []string{"bogus", ""} {
		if _, err := Get(bogus); err == nil {
			t.Errorf("Get(%q) accepted", bogus)
		} else if !strings.Contains(err.Error(), "serial") || !strings.Contains(err.Error(), "parallel") {
			t.Errorf("Get(%q) error does not name the choices: %v", bogus, err)
		}
	}
	if got := strings.Join(Names(), ","); got != "parallel,serial" {
		t.Fatalf("Names() = %s, want parallel,serial", got)
	}
	for _, fixture := range []string{"chaos", "limited", "sharded"} {
		if _, err := Get(fixture); err == nil {
			t.Errorf("Get(%q) resolved a test fixture", fixture)
		}
	}
}

// TestNilEngineMisuse: a nil engine is an error everywhere — Check,
// RunPartial and Chunked — with a message pointing at the valid
// selections.
func TestNilEngineMisuse(t *testing.T) {
	if err := Check(nil); err == nil || !strings.Contains(err.Error(), "nil engine") {
		t.Errorf("Check(nil) = %v", err)
	}
	if err := Check(Serial); err != nil {
		t.Errorf("Check(Serial) = %v", err)
	}
	if err := RunPartial(context.Background(), nil, 4, func(int) {}); err == nil || !strings.Contains(err.Error(), "nil engine") {
		t.Errorf("RunPartial(nil engine) = %v", err)
	}
	if err := Chunked(context.Background(), nil, 4, 1, func(int, int) {}); err == nil || !strings.Contains(err.Error(), "nil engine") {
		t.Errorf("Chunked(nil engine) = %v", err)
	}
}

// TestChunkedPartition: chunks tile [0, n) exactly, in order, respect
// the minimum chunk size, and degenerate cases fall back to one
// serial range (or nothing for empty input).
func TestChunkedPartition(t *testing.T) {
	for _, tc := range []struct {
		e               Engine
		n, minChunk     int
		maxChunks       int
		wantSingleChunk bool
	}{
		{Serial, 61, 16, 1, true},        // serial engine: always one range
		{WordParallel, 61, 16, 4, false}, // ceil(61/16) = 4 chunks at most
		{WordParallel, 61, 100, 1, true}, // minChunk > n: serial fallback
		{WordParallel, 3, 0, 3, false},   // minChunk clamps to 1
	} {
		covered := make([]int, tc.n)
		var chunks int32
		if err := Chunked(context.Background(), tc.e, tc.n, tc.minChunk, func(lo, hi int) {
			atomic.AddInt32(&chunks, 1)
			if hi <= lo {
				t.Errorf("empty chunk [%d, %d)", lo, hi)
			}
			for i := lo; i < hi; i++ {
				covered[i]++
			}
		}); err != nil {
			t.Fatal(err)
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("e=%s n=%d minChunk=%d: index %d covered %d times", tc.e.Name(), tc.n, tc.minChunk, i, c)
			}
		}
		if int(chunks) > tc.maxChunks {
			t.Errorf("e=%s n=%d minChunk=%d: %d chunks, want <= %d", tc.e.Name(), tc.n, tc.minChunk, chunks, tc.maxChunks)
		}
		if tc.wantSingleChunk && chunks != 1 {
			t.Errorf("e=%s n=%d minChunk=%d: %d chunks, want exactly 1", tc.e.Name(), tc.n, tc.minChunk, chunks)
		}
	}
	if err := Chunked(context.Background(), Serial, 0, 8, func(lo, hi int) { t.Error("Chunked ran a chunk for n=0") }); err != nil {
		t.Fatal(err)
	}
}
