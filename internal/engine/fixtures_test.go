package engine_test

// The fixture engines (Chaos, ShardUnion and the slot-starved Limited)
// live in enginetest so they never reach a production engine list;
// their contract tests sit here, next to the built-ins'.

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/enginetest"
	"repro/internal/parallel"
)

// fixture returns the named engine from enginetest.Engines().
func fixture(t *testing.T, name string) engine.Engine {
	t.Helper()
	for _, e := range enginetest.Engines() {
		if e.Name() == name {
			return e
		}
	}
	t.Fatalf("enginetest.Engines() has no %q engine", name)
	return nil
}

// order runs n items on e and returns the dispatch order the items
// observed.
func order(t *testing.T, e engine.Engine, n int) []int {
	t.Helper()
	var got []int
	if err := e.Run(context.Background(), n, 1, func(_, i int) { got = append(got, i) }); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestChaosRegistered: a "chaos" engine is in the suites' engine list
// with a benign (recoverable-faults-only) spec, so every package's
// enginetest suite replays on it — and it is not a production engine.
func TestChaosRegistered(t *testing.T) {
	c, ok := fixture(t, "chaos").(*enginetest.Chaos)
	if !ok {
		t.Fatalf("chaos fixture is %T", fixture(t, "chaos"))
	}
	if c.Spec().Panic {
		t.Error("chaos fixture injects panics; it must stay recoverable")
	}
	if c.Spec().DropProb <= 0 {
		t.Error("chaos fixture drops nothing; it stresses no reordering")
	}
	if _, err := engine.Get("chaos"); err == nil {
		t.Error(`engine.Get("chaos") resolved a test fixture`)
	}
}

// TestChaosExactlyOnce: even with aggressive drop-then-retry the
// chaos engine runs every index exactly once — the property that makes
// it contract-conforming and bit-identical to serial.
func TestChaosExactlyOnce(t *testing.T) {
	c := enginetest.NewChaos("chaos-test", engine.WordParallel, 7, enginetest.ChaosSpec{DropProb: 0.5})
	const n = 513
	workers := c.Workers(n)
	for _, w := range []int{0, workers} {
		visits := make([]int32, n)
		if err := c.Run(context.Background(), n, w, func(worker, i int) {
			if worker < 0 || worker >= workers {
				t.Errorf("worker %d outside [0, %d)", worker, workers)
			}
			atomic.AddInt32(&visits[i], 1)
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", w, i, v)
			}
		}
	}
}

// TestChaosPlanDeterministic: the fault plan is a pure function of
// (seed, spec, n) — same seed, same order; different seed, (almost
// surely) different order; and always a permutation of [0, n). On a
// serial inner engine the items observe the plan's dispatch order.
func TestChaosPlanDeterministic(t *testing.T) {
	spec := enginetest.ChaosSpec{DropProb: 0.3}
	const n = 200
	orderA := order(t, enginetest.NewChaos("a", engine.Serial, 42, spec), n)
	orderB := order(t, enginetest.NewChaos("b", engine.Serial, 42, spec), n)
	orderC := order(t, enginetest.NewChaos("c", engine.Serial, 43, spec), n)
	if len(orderA) != n {
		t.Fatalf("plan has %d slots for %d items", len(orderA), n)
	}
	seen := make([]bool, n)
	for _, i := range orderA {
		if seen[i] {
			t.Fatalf("plan repeats index %d", i)
		}
		seen[i] = true
	}
	if !slices.Equal(orderA, orderB) {
		t.Error("same seed produced different plans")
	}
	if slices.Equal(orderA, orderC) {
		t.Error("different seeds produced identical plans (suspicious)")
	}
	if slices.IsSorted(orderA) {
		t.Error("a 30% drop plan kept ascending order; nothing was reordered")
	}
}

// TestChaosPanicInjection: a panic-injecting chaos engine surfaces a
// *parallel.PanicError attributed to the real (reordered) item index,
// with the injected ChaosPanic reachable via errors.As underneath.
func TestChaosPanicInjection(t *testing.T) {
	for _, inner := range []engine.Engine{engine.Serial, engine.WordParallel} {
		c := enginetest.NewChaos("chaos-panic", inner, 11, enginetest.ChaosSpec{DropProb: 0.4, Panic: true, PanicAt: 5})
		err := c.Run(context.Background(), 32, 0, func(int, int) {})
		var pe *parallel.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("inner=%s: err = %v (%T), want *parallel.PanicError", inner.Name(), err, err)
		}
		if pe.Index != 5 {
			t.Errorf("inner=%s: panic attributed to index %d, want 5 (the item, not its dispatch slot)", inner.Name(), pe.Index)
		}
		var cp enginetest.ChaosPanic
		if !errors.As(err, &cp) || cp.Index != 5 {
			t.Errorf("inner=%s: ChaosPanic not reachable: %v", inner.Name(), err)
		}
	}
}

// TestChaosPanicAtClamped: out-of-range PanicAt clamps into [0, n-1]
// instead of silently never firing.
func TestChaosPanicAtClamped(t *testing.T) {
	for _, tc := range []struct{ at, want int }{{99, 2}, {-7, 0}} {
		c := enginetest.NewChaos("chaos-clamp", engine.Serial, 3, enginetest.ChaosSpec{Panic: true, PanicAt: tc.at})
		err := c.Run(context.Background(), 3, 0, func(int, int) {})
		var cp enginetest.ChaosPanic
		if !errors.As(err, &cp) {
			t.Fatalf("PanicAt=%d: no ChaosPanic: %v", tc.at, err)
		}
		if cp.Index != tc.want {
			t.Errorf("PanicAt=%d fired at %d, want clamped %d", tc.at, cp.Index, tc.want)
		}
	}
}

// TestChaosZeroSpecTransparent: the zero spec is a no-op wrapper —
// serial inner, ascending order, no faults.
func TestChaosZeroSpecTransparent(t *testing.T) {
	c := enginetest.NewChaos("chaos-zero", engine.Serial, 1, enginetest.ChaosSpec{})
	if got := order(t, c, 6); !slices.Equal(got, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("zero-spec chaos reordered: %v", got)
	}
	for _, n := range []int{0, -1} {
		if got := order(t, c, n); len(got) != 0 {
			t.Errorf("n=%d ran items %v", n, got)
		}
	}
}

// TestChaosDelayStillCompletes: delays perturb scheduling but never
// results — a fully delayed sweep still covers every index.
func TestChaosDelayStillCompletes(t *testing.T) {
	c := enginetest.NewChaos("chaos-delay", engine.WordParallel, 3, enginetest.ChaosSpec{DelayProb: 1, Delay: 100 * time.Microsecond})
	var ran atomic.Int32
	if err := c.Run(context.Background(), 16, 0, func(int, int) { ran.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 16 {
		t.Fatalf("delayed sweep ran %d of 16", ran.Load())
	}
}

// TestChaosCancellation: cancellation reaches through the wrapper like
// any other engine.
func TestChaosCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := enginetest.NewChaos("chaos-ctx", engine.WordParallel, 5, enginetest.ChaosSpec{DropProb: 0.2})
	err := c.Run(ctx, 40, 0, func(_, i int) { t.Errorf("ran %d under dead ctx", i) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestLimitedRegistered: the shared "limited" fixture is in the suites'
// engine list, so every package's enginetest suite replays on a
// slot-starved dispatch — and it is not a production engine.
func TestLimitedRegistered(t *testing.T) {
	l, ok := fixture(t, "limited").(*engine.Limited)
	if !ok {
		t.Fatalf("limited fixture is %T, want *engine.Limited", fixture(t, "limited"))
	}
	if l.Slots() < 1 {
		t.Fatalf("limited fixture has %d slots", l.Slots())
	}
	if _, err := engine.Get("limited"); err == nil {
		t.Error(`engine.Get("limited") resolved a test fixture`)
	}
}

// TestShardsOfUnionCoversExactlyOnce: the complete family's union runs
// every index exactly once and reports success — the reassembly
// identity the "sharded" fixture carries into every package's suite.
func TestShardsOfUnionCoversExactlyOnce(t *testing.T) {
	u, err := enginetest.NewShardUnion("t", enginetest.ShardsOf(engine.Serial, 4)...)
	if err != nil {
		t.Fatal(err)
	}
	const n = 21
	counts := make([]int, n)
	if err := u.Run(context.Background(), n, 0, func(_, i int) { counts[i]++ }); err != nil {
		t.Errorf("complete-family Run = %v, want nil (remainders are internal)", err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Errorf("index %d ran %d times, want 1", i, c)
		}
	}
}

// TestNewShardUnionFailsClosed: empty lists and invalid members are
// rejected at construction.
func TestNewShardUnionFailsClosed(t *testing.T) {
	if _, err := enginetest.NewShardUnion("t"); err == nil {
		t.Error("empty union accepted")
	}
	if _, err := enginetest.NewShardUnion("t", engine.Shard{K: 2, N: 2, Inner: engine.Serial}); err == nil {
		t.Error("invalid member shard accepted")
	}
}

// TestShardedEngineRegistered: the "sharded" composition is in the
// suites' engine list, so every enginetest suite replays on it — and
// it is not a production engine.
func TestShardedEngineRegistered(t *testing.T) {
	if _, ok := fixture(t, "sharded").(*enginetest.ShardUnion); !ok {
		t.Fatalf("sharded fixture is %T, want *enginetest.ShardUnion", fixture(t, "sharded"))
	}
	if _, err := engine.Get("sharded"); err == nil {
		t.Error(`engine.Get("sharded") resolved a test fixture`)
	}
}
