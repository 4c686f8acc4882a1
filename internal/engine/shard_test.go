package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestShardOwnershipPartitions: both ownership modes are total and
// disjoint — every index of a sweep is owned by exactly one shard of
// the family, for shard counts that divide the range and ones that
// don't.
func TestShardOwnershipPartitions(t *testing.T) {
	for _, contiguous := range []bool{false, true} {
		for _, total := range []int{0, 1, 2, 7, 33, 64} {
			for _, n := range []int{1, 2, 3, 5} {
				owners := make([]int, total)
				for i := range owners {
					owners[i] = -1
				}
				for k := 0; k < n; k++ {
					sh := Shard{K: k, N: n, Contiguous: contiguous, Inner: Serial}
					for i := 0; i < total; i++ {
						if !sh.Owns(i, total) {
							continue
						}
						if owners[i] != -1 {
							t.Fatalf("contiguous=%v total=%d n=%d: index %d owned by shards %d and %d",
								contiguous, total, n, i, owners[i], k)
						}
						owners[i] = k
					}
				}
				for i, k := range owners {
					if k == -1 {
						t.Fatalf("contiguous=%v total=%d n=%d: index %d owned by no shard",
							contiguous, total, n, i)
					}
				}
			}
		}
	}
}

// TestShardOwnsRejectsOutOfRange: indices outside [0, total) are never
// owned, so a stale index can't sneak into a shard's slice.
func TestShardOwnsRejectsOutOfRange(t *testing.T) {
	sh := Shard{K: 0, N: 3, Inner: Serial}
	if sh.Owns(-3, 10) {
		t.Error("Owns(-3, 10) = true, want false")
	}
	if sh.Owns(12, 10) {
		t.Error("Owns(12, 10) = true, want false")
	}
}

// TestShardForRunsOwnedIndicesOnce: Run runs exactly the owned
// indices, exactly once, leaves the rest untouched and reports them as
// ErrShardRemainder.
func TestShardForRunsOwnedIndicesOnce(t *testing.T) {
	const n = 20
	for _, contiguous := range []bool{false, true} {
		sh := Shard{K: 1, N: 3, Contiguous: contiguous, Inner: WordParallel}
		for _, w := range []int{0, sh.Workers(n)} {
			var counts [n]atomic.Int32
			err := sh.Run(context.Background(), n, w, func(_, i int) { counts[i].Add(1) })
			if !errors.Is(err, ErrShardRemainder) {
				t.Errorf("contiguous=%v workers=%d: Run = %v, want ErrShardRemainder", contiguous, w, err)
			}
			for i := range counts {
				want := int32(0)
				if sh.Owns(i, n) {
					want = 1
				}
				if c := counts[i].Load(); c != want {
					t.Errorf("contiguous=%v workers=%d: index %d ran %d times, want %d", contiguous, w, i, c, want)
				}
			}
		}
	}
}

// TestShardValidate pins the malformed-spec errors the CLI surfaces.
func TestShardValidate(t *testing.T) {
	cases := []struct {
		name string
		sh   Shard
		ok   bool
	}{
		{"valid", Shard{K: 0, N: 1, Inner: Serial}, true},
		{"valid-last", Shard{K: 2, N: 3, Inner: Serial}, true},
		{"k==n", Shard{K: 3, N: 3, Inner: Serial}, false},
		{"negative-k", Shard{K: -1, N: 2, Inner: Serial}, false},
		{"zero-n", Shard{K: 0, N: 0, Inner: Serial}, false},
		{"nil-inner", Shard{K: 0, N: 2}, false},
	}
	for _, c := range cases {
		err := c.sh.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: Validate() = %v, want nil", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: Validate() = nil, want error", c.name)
		}
	}
}

// TestShardForPanicsOnInvalidSpec: a malformed spec is a returned
// error, never a panic — and never a silent run of the wrong slice.
func TestShardForPanicsOnInvalidSpec(t *testing.T) {
	for _, sh := range []Shard{{K: 3, N: 3, Inner: Serial}, {K: 0, N: 2}} {
		err := sh.Run(context.Background(), 4, 0, func(int, int) { t.Errorf("%s ran an item", sh.Name()) })
		if err == nil || errors.Is(err, ErrShardRemainder) {
			t.Errorf("%s: Run = %v, want a validation error", sh.Name(), err)
		}
		if w := sh.Workers(4); w != 1 {
			t.Errorf("%s: Workers(4) = %d, want 1", sh.Name(), w)
		}
	}
}

// TestShardForCtxReportsRemainderAsPartial: the ctx face reports the
// skipped non-owned indices through RunPartial as a *Partial wrapping
// ErrShardRemainder, with the Done bitmap marking exactly the owned
// indices — the contract the checkpoint and merge layers build on.
func TestShardForCtxReportsRemainderAsPartial(t *testing.T) {
	const n = 10
	sh := Shard{K: 2, N: 3, Inner: WordParallel}
	got := make([]int, n)
	err := RunPartial(context.Background(), sh, n, func(i int) { got[i] = i + 1 })
	var p *Partial
	if !errors.As(err, &p) {
		t.Fatalf("RunPartial error = %v, want *Partial", err)
	}
	if !errors.Is(err, ErrShardRemainder) {
		t.Fatalf("RunPartial error = %v, want to wrap ErrShardRemainder", err)
	}
	owned := 0
	for i := 0; i < n; i++ {
		if sh.Owns(i, n) {
			owned++
		}
		if p.Done[i] != sh.Owns(i, n) {
			t.Errorf("Done[%d] = %v, want %v", i, p.Done[i], sh.Owns(i, n))
		}
		want := 0
		if sh.Owns(i, n) {
			want = i + 1
		}
		if got[i] != want {
			t.Errorf("item %d = %d, want %d", i, got[i], want)
		}
	}
	if p.N != n || p.Completed != owned {
		t.Errorf("Partial = %d/%d completed, want %d/%d", p.Completed, p.N, owned, n)
	}
}

// TestShardForCtxFullCoverageSucceeds: a 1-of-1 shard owns everything
// and returns nil, not a remainder.
func TestShardForCtxFullCoverageSucceeds(t *testing.T) {
	sh := Shard{K: 0, N: 1, Inner: Serial}
	ran := 0
	if err := sh.Run(context.Background(), 5, 0, func(int, int) { ran++ }); err != nil {
		t.Fatalf("Run = %v, want nil", err)
	}
	if ran != 5 {
		t.Fatalf("ran %d items, want 5", ran)
	}
}

// TestShardForCtxPropagatesCancellation: a real interruption inside the
// owned slice surfaces as the context error, not as a remainder.
func TestShardForCtxPropagatesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sh := Shard{K: 0, N: 2, Inner: Serial}
	err := sh.Run(ctx, 8, 0, func(int, int) {})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on cancelled ctx = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrShardRemainder) {
		t.Fatal("cancellation must not masquerade as a shard remainder")
	}
}

// TestShardForCtxInvalidSpecReturnsError: the Partial helper surfaces
// the validation error, so the CLI path fails typed.
func TestShardForCtxInvalidSpecReturnsError(t *testing.T) {
	sh := Shard{K: -1, N: 2, Inner: Serial}
	if err := RunPartial(context.Background(), sh, 4, func(int) {}); err == nil || errors.Is(err, ErrShardRemainder) {
		t.Fatalf("RunPartial on an invalid shard = %v, want a validation error", err)
	}
}

// TestAsShard: value and pointer shards unwrap; anything else doesn't.
func TestAsShard(t *testing.T) {
	sh := Shard{K: 1, N: 2, Inner: Serial}
	if got, ok := AsShard(sh); !ok || got != sh {
		t.Errorf("AsShard(value) = %v, %v", got, ok)
	}
	if got, ok := AsShard(&sh); !ok || got != sh {
		t.Errorf("AsShard(pointer) = %v, %v", got, ok)
	}
	if _, ok := AsShard(Serial); ok {
		t.Error("AsShard(Serial) = true, want false")
	}
	if _, ok := AsShard((*Shard)(nil)); ok {
		t.Error("AsShard(nil *Shard) = true, want false")
	}
}

// TestShardWorkersAtLeastOne: even a shard that owns nothing at small n
// reports a usable pool size, per the Workers contract.
func TestShardWorkersAtLeastOne(t *testing.T) {
	sh := Shard{K: 2, N: 3, Inner: WordParallel}
	if w := sh.Workers(2); w < 1 {
		t.Fatalf("Workers(2) = %d, want >= 1", w)
	}
}
