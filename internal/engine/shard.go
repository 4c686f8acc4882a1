package engine

import (
	"context"
	"errors"
	"fmt"
)

// ErrShardRemainder reports that a sharded dispatch completed every
// index it owns and deliberately skipped the rest. It is the expected
// "failure" of a Shard-wrapped sweep: RunPartial wraps it in a *Partial
// whose Done bitmap marks exactly the owned indices, so checkpointing
// layers persist the shard's slice of the study and a merge step (or a
// resume on the union of shard snapshots) reassembles the whole run
// bit-identically. Callers distinguish it from a real interruption with
// errors.Is.
var ErrShardRemainder = errors.New("engine: shard dispatch complete; non-owned indices skipped")

// Shard is the distributing wrapper engine: it filters an n-item
// dispatch down to the indices shard K of N owns and runs only those on
// the inner engine, preserving the index-ordered, bit-identical
// semantics of every item it runs. Because the sweeps in this repo
// derive all per-item randomness from the item index
// (stochastic.DeriveSeed), any index subset computes the same values it
// would in a full run — which is what makes every engine-accepting
// entry point shardable across processes or machines with no per-path
// code.
//
// Ownership is round-robin by default (i % N == K, which balances any
// sweep shape) or a contiguous block partition when Contiguous is set
// (block K of a balanced split of [0, n), for shards that want cache
// locality over balance). Both partitions are total and disjoint across
// K = 0..N-1, so the union of all N shards covers every index exactly
// once.
//
// A Shard deliberately breaks the "every index runs exactly once"
// engine contract for the indices it does not own: Run leaves them
// untouched and reports them through ErrShardRemainder, so
// RunPartial-based sweeps surface a *Partial with the owned indices
// marked Done. The enginetest "sharded" fixture is a union of a full
// shard family, which restores the contract and proves reassembly
// equals the Serial reference through the suite.
type Shard struct {
	// K is this shard's id in [0, N); N is the total shard count.
	K, N int
	// Contiguous switches ownership from round-robin (i % N == K) to
	// the K-th block of a balanced partition of the index range.
	Contiguous bool
	// Inner runs the owned indices; it sees a dense [0, owned) dispatch
	// and must satisfy the usual engine contract for it.
	Inner Engine
}

// Validate reports a malformed shard spec: K out of [0, N), N < 1, or
// a missing inner engine.
func (s Shard) Validate() error {
	if s.N < 1 {
		return fmt.Errorf("engine: shard %d/%d: need at least 1 shard", s.K, s.N)
	}
	if s.K < 0 || s.K >= s.N {
		return fmt.Errorf("engine: shard %d/%d: shard index must be in [0, %d)", s.K, s.N, s.N)
	}
	if s.Inner == nil {
		return fmt.Errorf("engine: shard %d/%d has no inner engine", s.K, s.N)
	}
	return nil
}

// Name implements Engine.
func (s Shard) Name() string {
	inner := "nil"
	if s.Inner != nil {
		inner = s.Inner.Name()
	}
	if s.Contiguous {
		return fmt.Sprintf("shard(%d/%d:block,%s)", s.K, s.N, inner)
	}
	return fmt.Sprintf("shard(%d/%d,%s)", s.K, s.N, inner)
}

// Owns reports whether this shard owns index i of a total-item sweep.
// Round-robin ownership ignores total; the contiguous block partition
// needs it.
func (s Shard) Owns(i, total int) bool {
	if i < 0 || (total >= 0 && i >= total) {
		return false
	}
	if s.Contiguous {
		return i >= s.K*total/s.N && i < (s.K+1)*total/s.N
	}
	return i%s.N == s.K
}

// owned lists the indices of [0, n) this shard owns, ascending — the
// dense sub-range the inner engine dispatches.
func (s Shard) owned(n int) []int {
	if n <= 0 {
		return nil
	}
	if s.Contiguous {
		lo, hi := s.K*n/s.N, (s.K+1)*n/s.N
		out := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, i)
		}
		return out
	}
	out := make([]int, 0, n/s.N+1)
	for i := s.K; i < n; i += s.N {
		out = append(out, i)
	}
	return out
}

// Workers implements Engine: the inner pool size for the owned item
// count (at least 1 for n > 0, per the contract, even when this shard
// owns nothing or its spec is malformed — Run reports that).
func (s Shard) Workers(n int) int {
	w := 1
	if s.Validate() == nil {
		w = s.Inner.Workers(len(s.owned(n)))
	}
	if w < 1 && n > 0 {
		w = 1
	}
	return w
}

// Run implements Engine for the owned indices: they dispatch on the
// inner engine under ctx, and a run that finishes them all while
// skipping non-owned ones returns ErrShardRemainder — which RunPartial
// turns into a *Partial whose Done bitmap marks exactly the owned
// indices. A malformed spec is an error.
func (s Shard) Run(ctx context.Context, n, workers int, fn func(worker, i int)) error {
	if err := s.Validate(); err != nil {
		return err
	}
	owned := s.owned(n)
	if err := s.Inner.Run(ctx, len(owned), workers, func(w, j int) { fn(w, owned[j]) }); err != nil {
		return err
	}
	if len(owned) < n {
		return ErrShardRemainder
	}
	return nil
}

// AsShard unwraps an engine selection to its Shard when the outermost
// wrapper is one (value or pointer) — the hook shard-aware layers like
// dse.Checkpointer use to filter by true item index before dispatching
// on the inner engine.
func AsShard(e Engine) (Shard, bool) {
	switch sh := e.(type) {
	case Shard:
		return sh, true
	case *Shard:
		if sh != nil {
			return *sh, true
		}
	}
	return Shard{}, false
}
