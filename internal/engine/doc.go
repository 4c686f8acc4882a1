// Package engine is the pluggable evaluation-engine layer: one
// interface over "run n independent, index-addressed work items" that
// every sweep, study and image batch in this repo dispatches through.
// An Engine has exactly three methods — Name, Workers and Run — and
// every engine-accepting entry point in the repo has exactly one
// spelling, X(ctx, e, ...), that returns an error. Two engines are
// built in: Serial, the in-order reference implementation every test
// oracle runs on, and WordParallel, the internal/parallel worker pool
// the production paths run on (what a nil figures.Config.Engine or
// serve.Config.Engine means, and oscbench/oscserve's -engine default).
// There is no process-global engine: callers pass one per call, and
// Get resolves the two built-in names for CLI flags.
//
// # The determinism contract
//
// An Engine is a scheduler, not a randomness source. Any Engine — the
// built-ins, the wrappers below, a future bipolar or nanocavity
// backend, a remote shard — must satisfy the contract that makes
// results engine-independent:
//
//   - Exactly once: Run(ctx, n, workers, fn) calls fn for every index
//     in [0, n) exactly once and returns nil only after every call has
//     completed. No index may be skipped, duplicated, or left in
//     flight.
//   - Index-derived randomness: which goroutine runs which index is the
//     engine's business, so work functions must derive any randomness
//     from the index alone — stochastic.DeriveSeed(base, i) — never
//     from worker identity, shared generators, or the clock. (The
//     detrand lint rule enforces this at the call sites.)
//   - Index-ordered aggregation: engines impose no execution order;
//     callers write results to out[i] and reduce in index order, so
//     floating-point sums fold identically under any scheduling.
//   - O(workers) scratch: Run's worker argument is in [0, workers) and
//     each concurrent goroutine owns a distinct worker index for the
//     duration of the call, so callers may address per-worker scratch
//     without locks. Workers(n) reports the pool size the engine will
//     use for n items, so scratch can be sized before the fan-out;
//     callers pass that same count back to Run (workers <= 0 means
//     Workers(n)).
//   - Item-boundary cancellation: once ctx fires, Run hands out no
//     further items and returns the context's error after the
//     in-flight ones finish — items never run partially and are never
//     re-run. A panicking item stops the handout too and surfaces as a
//     returned *parallel.PanicError naming the faulting index, never
//     as a crash.
//
// Any implementation holding those properties produces results
// bit-identical to engine.Serial. That is not left to inspection: the
// generic enginetest.Run suite — one registration per package,
// covering every engine-accepting entry point — replays each path on
// the built-ins and the enginetest fixture engines (fault-injecting
// chaos, a slot-starved Limited, a recomposed shard family) at
// GOMAXPROCS 1 and 4 against the Serial reference.
//
// # Nested sweeps
//
// A work item never dispatches on the engine it runs on. Sweeps nested
// inside a sweep point — the per-order spacing sweep and optimum
// search of Fig. 7, the edge detection inside an edge-study point, the
// noisy trial batches inside a noise-study point — run on
// engine.Serial. The outer sweep already spreads the work over
// the pool, and dispatching inward on a Limited engine would deadlock:
// outer items hold every slot while their inner items wait for one.
//
// Single-stream paths (transient.Simulator.Trace, MeasureEye) consume
// one sequential noise stream and cannot fan out; they run their walk
// as a single work item, so every conforming engine emits the identical
// waveform and the suite still catches engines that violate
// exactly-once dispatch.
//
// Chunked batches cheap per-item work into contiguous index ranges (at
// most Workers ranges, each at least minChunk items) so paths whose
// items are a few microseconds — the OptimalSpacing bracketing scan —
// pay per-chunk rather than per-item dispatch overhead. On a one-worker
// engine it is one range, the pure serial walk.
//
// # Interruption, checkpointing and admission
//
// RunPartial wraps a Run interruption in *Partial: the per-index Done
// bitmap and Completed count that tell a caller exactly which items
// finished — the unit of resumability dse.Checkpointer builds on
// (periodic durable snapshots, fail-closed key hashing, resume re-runs
// only the missing indices with bit-identical reassembly; oscbench
// -fig yield -checkpoint/-resume). A nil engine is an error at every
// entry point (Check).
//
// Limited wraps an engine behind a slot semaphore shared by every
// dispatch through it — the admission seam oscserve runs every request
// on, so concurrent jobs never oversubscribe the machine.
//
// # Sharding
//
// Index-derived randomness also makes sweeps distributable: because
// item i's result never depends on which process ran it, a sweep can
// split across machines by index alone. Shard{K, N, Inner} wraps any
// engine and dispatches only the indices shard K of N owns (i%N == K,
// or contiguous blocks with Contiguous), bit-identical to the full run
// on the owned subset. A shard deliberately breaks exactly-once over
// [0, n) — it is exactly-once over its slice — so its Run reports the
// unowned remainder as ErrShardRemainder, which RunPartial turns into a
// Partial whose Done bitmap equals ownership; callers (dse.Checkpointer,
// oscbench -shard, /v1/yield's shard/of fields) treat that as "my share
// is complete" and assemble shards back into a full study with
// cmd/oscmerge.
package engine
