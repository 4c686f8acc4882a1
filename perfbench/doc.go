// Command perfbench is the repository's benchmark. It is one Go
// process that drives three workloads through the system's most
// stable public surfaces (the figure registry, the oscserve HTTP API
// on an in-process loopback listener, and a few per-layer entry
// points), checks every output, and prints one JSON result line.
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload figures --seed 1 --seconds 20 --trace 0
//
// run.sh builds the benchmark from source into .bench_build (build
// cache and temp files included) and runs it. The benchmark is its own
// module so the main module's tests and lint never see it; it reaches
// the program through a replace directive to the parent directory.
//
// # Workloads
//
// The seed generates the inputs (request bodies and their order,
// figure orders); the program under test sees only those inputs.
//
//   - figures: back-to-back passes in process. A pass renders all 18
//     registry figures at figures.Defaults() on the parallel engine in
//     a seeded order; one op is one pass. This is oscbench -fig all,
//     the batch end-to-end. Many small sweeps exercise dse, core
//     tables, numeric, image, stochastic and transient, with text
//     rendering and no HTTP, so it is the bypass workload for changes
//     to the serve layer.
//   - serve_cold: a closed loop of 2 clients (one per core of the
//     2-core machines it is sized for) against serve.Config{}. Every
//     body is distinct (a fresh seed, or for figures a varied knob the
//     figure does not read), so every request misses the cache, runs
//     compute and fills the cache. The mix, exact in every block of 20,
//     is 30% /v1/ber (defaults), 25% /v1/yield, 15% each
//     /v1/image/gamma and /v1/image/edge (64×64 synthetic images) and
//     15% /v1/figures/{6a,7a,yield}. Monte Carlo kernels dominate and
//     two jobs share the queue and the Limited engine; a faster noise
//     kernel should show here.
//   - serve_hot: the same server and mix, replaying a fixed set of 20
//     bodies primed during set-up, so every measured request is an
//     X-Cache hit. Routing, JSON decode, content-address hashing, cache
//     reads and response writes do all the work. It isolates the serve
//     layer and is the bypass workload for kernel changes.
//
// # End-to-end metrics (untraced runs, --trace 0)
//
// Every workload reports every end-to-end metric, so throughput is one
// metric whose op depends on the workload.
//
//   - setup_s: median of five complete set-ups (the first timed from
//     process start): the warm reference pass on figures; listener,
//     server and one warm-up block of the mix on serve_cold; listener,
//     server and priming of the hot set on serve_hot.
//   - peak_rss_mb: VmHWM at the end of the run.
//   - ops_per_s: registry passes per second on figures (the inverse of
//     the median pass time); 200 responses per second on the serve
//     workloads.
//   - latency_p50_ms, latency_p99_ms: client send to last body byte on
//     the serve workloads (thousands of requests per run); the latency
//     of one figure render on figures (18 renders per pass).
//
// Failed and wrong operations are not a metric, since a correct run
// has none: they are the result line's failed count, out of attempted,
// and any failure makes the run exit nonzero naming the check.
//
// # Per-layer metrics (traced runs, --trace 1)
//
// Each layer metric, and the end-to-end metric it should move:
//
//	engine      serial_pass_ms, parallel_pass_ms,   ops_per_s on figures
//	            speedup (serial over parallel pass
//	            time, base GOMAXPROCS)
//	            slot_occupancy (mean in_flight/slots  ops_per_s on serve_cold
//	            of the server's Limited engine)
//	figures     noise, waterfall, yield _ms           ops_per_s on figures
//	            (noise sampler, transient decisions)
//	            edge, video _ms (image, plane ops)    ops_per_s on figures
//	            tradeoff, sweep _ms (dse sweeps, SNG) ops_per_s on figures
//	            7a, 7b, ablation _ms (core tables)    ops_per_s on figures
//	            rest_ms (the 8 sub-ms keys summed)    ops_per_s on figures
//	            pass_allocs (exact, serial pass)      ops_per_s on figures
//	serve       hit_handler_us, transport_us          p50 and ops_per_s on serve_hot
//	            {ber,yield,gamma,edge,figure}_miss_ms p50 and p99 on serve_cold
//	            cache_hit_ratio (1 on serve_hot,
//	            0 on serve_cold)
//	            queue_depth_mean, running_mean,       p99 on serve_cold
//	            rejected_ratio
//	transient   ber_bits_per_s (bits × points over    ops_per_s on serve_cold
//	            /v1/ber miss handler time)
//	core        circuit_build_us, circuit_allocs      ops_per_s on serve_cold,
//	            (NewCircuit + PowerTable), die_ms,    figures.yield_ms
//	            die_allocs (YieldStudySpec.Die)
//	stochastic  gaussian_ns per sample, sng_word_ns,  ops_per_s on serve_cold
//	            plane_word_ns                         and on figures
//	trace       overhead_pct: untraced over traced
//	            throughput, minus one, in percent
//
// A traced run splits the measured window into quarters, untraced,
// traced, traced, untraced, for overhead_pct, and then runs a layer
// ladder (registry passes on the serial and parallel engines, circuit
// and die builds, the stochastic word kernels). Where a workload does
// not itself exercise a layer, a fixed probe fills its metrics: on
// figures a fresh server is primed with the hot set and replays it ten
// times; on serve_cold the last bodies sent are replayed as hits; on
// serve_hot the traced priming supplies the miss times.
//
// # Tracing
//
// Spans are recorded by the benchmark around its calls into each
// layer: figure passes and renders, client requests, and a server-side
// span from a handler that wraps serve.Server. A span carries name,
// start, end, parent and request id; the id travels in the
// X-Perfbench-Request header, which is not part of the cache key.
// Spans stay in memory and are written at the end, one JSON object per
// line with self time (duration minus the union of child spans), to
// .bench_build/spans/<workload>.json or --spans. Queue wait and
// per-worker busy time are not measurable from outside the program;
// they wait for in-program tracing (ROADMAP item 5).
//
// # Output checks
//
// Checks are untimed and every failure counts as a failed op. figures:
// every pass is byte-identical to the reference pass, and the serial
// engine's pass to the parallel one's. serve_hot: every hit body is
// byte-identical to its priming body. serve_cold: every measured_ber
// lies within a 6σ binomial bound of analytic_ber at the request's
// bits, and image, yield and figure bodies decode to the expected
// shape. No check pins an output hash, so a change that legitimately
// changes bits still passes.
//
// Model accuracy is not gated here. It rests on the Summary figure's
// in-text anchors (for example 23.0 against the paper's 20.1 pJ/bit),
// which the figures workload prints to standard error.
package main
