package enginetest

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/stochastic"
)

// suiteCases is a miniature but representative workload: an indexed
// fan-out with per-index derived seeds and index-ordered aggregation,
// and a per-worker scratch reduction.
func suiteCases() []Case {
	return []Case{
		{
			Name: "derived-seed-sweep",
			Eval: func(e engine.Engine) (any, error) {
				out := make([]uint64, 9)
				err := e.Run(context.Background(), len(out), 0, func(_, i int) {
					out[i] = stochastic.DeriveSeed(7, i)
				})
				return out, err
			},
		},
		{
			Name: "worker-scratch-sum",
			Eval: func(e engine.Engine) (any, error) {
				const n = 33
				workers := e.Workers(n)
				partial := make([]float64, workers)
				err := e.Run(context.Background(), n, workers, func(w, i int) {
					partial[w] += float64(i * i)
				})
				var sum float64
				for _, p := range partial {
					sum += p
				}
				return sum, err
			},
		},
	}
}

// recorder is a TB that records failures instead of failing, so the
// suite itself can be put under test.
type recorder struct {
	failures []string
}

func (r *recorder) Helper() {}

func (r *recorder) Logf(format string, args ...any) {}

func (r *recorder) Errorf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// TestBuiltinEnginesPassSuite: every engine in Engines() reproduces the
// serial reference on the miniature workload — the suite run every
// evaluated package repeats with its real entry points.
func TestBuiltinEnginesPassSuite(t *testing.T) {
	Run(t, nil, suiteCases())
}

// TestSuiteCatchesLossyEngine proves the suite has teeth: an engine
// that violates exactly-once dispatch (Lossy drops the last index)
// must fail every case, deterministically.
func TestSuiteCatchesLossyEngine(t *testing.T) {
	rec := &recorder{}
	Run(rec, []engine.Engine{Lossy}, suiteCases())
	if len(rec.failures) == 0 {
		t.Fatal("suite accepted an engine that drops work; it has no teeth")
	}
	for _, want := range []string{"derived-seed-sweep", "worker-scratch-sum"} {
		found := false
		for _, f := range rec.failures {
			if strings.Contains(f, want) && strings.Contains(f, `"lossy"`) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("lossy engine not flagged on case %s; failures: %v", want, rec.failures)
		}
	}
}

// TestSuiteCatchesGappedShards: a shard family with a missing member
// leaves its indices zero-valued and must diverge from the serial
// reference — the suite-side proof that a gapped distributed run (or
// a merge that accepted one) cannot pass silently.
func TestSuiteCatchesGappedShards(t *testing.T) {
	rec := &recorder{}
	Run(rec, []engine.Engine{GappedShards}, suiteCases())
	if len(rec.failures) == 0 {
		t.Fatal("suite accepted a gapped shard union; it has no teeth")
	}
	found := false
	for _, f := range rec.failures {
		if strings.Contains(f, `"gapped-shards"`) && strings.Contains(f, "diverges") {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("gapped shard union not flagged; failures: %v", rec.failures)
	}
}

// TestSuiteCatchesOverlappingShards: a family with a duplicated member
// runs its indices twice; the accumulating worker-scratch case must
// diverge, proving overlap cannot reassemble silently either.
func TestSuiteCatchesOverlappingShards(t *testing.T) {
	rec := &recorder{}
	Run(rec, []engine.Engine{OverlapShards}, suiteCases())
	found := false
	for _, f := range rec.failures {
		if strings.Contains(f, `"overlap-shards"`) && strings.Contains(f, "worker-scratch-sum") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("overlapping shard union not flagged; failures: %v", rec.failures)
	}
}

// TestRegisteredEnginesPassChaosSuite: every engine in Engines() (the
// built-ins plus the fixtures) recovers bit-identically
// from drop/delay faults and fails typed under injected panics.
func TestRegisteredEnginesPassChaosSuite(t *testing.T) {
	RunChaos(t, nil, suiteCases())
}

// TestChaosSuiteCatchesSwallowedPanics proves the chaos suite has
// teeth on the propagation side: an engine that recovers and discards
// work-item panics (Swallow) must be flagged for returning a result
// where a typed failure was due.
func TestChaosSuiteCatchesSwallowedPanics(t *testing.T) {
	rec := &recorder{}
	RunChaos(rec, []engine.Engine{Swallow}, suiteCases())
	if len(rec.failures) == 0 {
		t.Fatal("chaos suite accepted an engine that swallows panics; it has no teeth")
	}
	found := false
	for _, f := range rec.failures {
		if strings.Contains(f, `"swallow"`) && strings.Contains(f, "swallowed an injected panic") {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("swallow engine not flagged for swallowing; failures: %v", rec.failures)
	}
}

// TestChaosSuiteCatchesDroppedWork proves the teeth on the recovery
// side: if retry/dispatch logic loses an item (Lossy drops the final
// dispatch slot, exactly what broken drop-then-retry would do), the
// recoverable-chaos replay must diverge from the serial reference.
func TestChaosSuiteCatchesDroppedWork(t *testing.T) {
	rec := &recorder{}
	RunChaos(rec, []engine.Engine{Lossy}, suiteCases())
	found := false
	for _, f := range rec.failures {
		if strings.Contains(f, `"lossy"`) && strings.Contains(f, "recoverable chaos") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("lossy engine not flagged under recoverable chaos; failures: %v", rec.failures)
	}
}

// TestSuiteRejectsMalformedCases: unnamed or Eval-less cases are
// reported rather than silently skipped.
func TestSuiteRejectsMalformedCases(t *testing.T) {
	rec := &recorder{}
	Run(rec, nil, []Case{{Name: "no-eval"}, {Eval: func(engine.Engine) (any, error) { return nil, nil }}})
	if len(rec.failures) != 2 {
		t.Fatalf("expected 2 malformed-case failures, got %v", rec.failures)
	}
}

// TestSuiteReportsReferenceFailure: a case whose serial reference
// errors is reported as such, not compared.
func TestSuiteReportsReferenceFailure(t *testing.T) {
	rec := &recorder{}
	Run(rec, nil, []Case{{
		Name: "broken-reference",
		Eval: func(e engine.Engine) (any, error) { return nil, fmt.Errorf("boom") },
	}})
	if len(rec.failures) != 1 || !strings.Contains(rec.failures[0], "serial reference failed") {
		t.Fatalf("reference failure not reported: %v", rec.failures)
	}
}
