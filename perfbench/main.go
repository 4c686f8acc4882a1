package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// processStart is taken as early as the benchmark's own code runs; the
// first set-up of every workload is timed from here.
var processStart = time.Now()

// setupReps is how many times a run sets its workload up; setup_s is
// the median, so neither the slow first set-up nor one disturbed by the
// machine decides it.
const setupReps = 5

// units names every metric the benchmark can emit, with its unit, as
// BENCHMARK.json declares them.
var units = map[string]string{
	// End to end, from untraced runs.
	"setup_s":        "s",
	"peak_rss_mb":    "MiB",
	"ops_per_s":      "1/s",
	"latency_p50_ms": "ms",
	"latency_p99_ms": "ms",

	// Per layer, from traced runs.
	"engine.serial_pass_ms":    "ms",
	"engine.parallel_pass_ms":  "ms",
	"engine.speedup":           "ratio",
	"engine.slot_occupancy":    "ratio",
	"figures.noise_ms":         "ms",
	"figures.waterfall_ms":     "ms",
	"figures.yield_ms":         "ms",
	"figures.edge_ms":          "ms",
	"figures.video_ms":         "ms",
	"figures.tradeoff_ms":      "ms",
	"figures.sweep_ms":         "ms",
	"figures.7a_ms":            "ms",
	"figures.7b_ms":            "ms",
	"figures.ablation_ms":      "ms",
	"figures.rest_ms":          "ms",
	"figures.pass_allocs":      "count",
	"serve.hit_handler_us":     "us",
	"serve.transport_us":       "us",
	"serve.ber_miss_ms":        "ms",
	"serve.yield_miss_ms":      "ms",
	"serve.gamma_miss_ms":      "ms",
	"serve.edge_miss_ms":       "ms",
	"serve.figure_miss_ms":     "ms",
	"serve.cache_hit_ratio":    "ratio",
	"serve.queue_depth_mean":   "count",
	"serve.running_mean":       "count",
	"serve.rejected_ratio":     "ratio",
	"transient.ber_bits_per_s": "bit/s",
	"core.circuit_build_us":    "us",
	"core.circuit_allocs":      "count",
	"core.die_ms":              "ms",
	"core.die_allocs":          "count",
	"stochastic.gaussian_ns":   "ns",
	"stochastic.sng_word_ns":   "ns",
	"stochastic.plane_word_ns": "ns",
	"trace.overhead_pct":       "%",
}

// endToEnd lists the metrics an untraced run reports; a traced run
// reports every other name in units.
var endToEnd = []string{"setup_s", "peak_rss_mb", "ops_per_s", "latency_p50_ms", "latency_p99_ms"}

// workloads maps each --workload name to its runner.
var workloads = map[string]func(context.Context, *run) error{
	"figures":    runFigures,
	"serve_cold": runServeCold,
	"serve_hot":  runServeHot,
}

// run is one benchmark invocation: its inputs, its tracer (nil when
// untraced), the outcome of every output check, and the metrics.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	tr       *Tracer
	log      io.Writer

	// berDecisions is bits × points of a default /v1/ber request, read
	// from the response bodies.
	berDecisions atomic.Int64

	mu        sync.Mutex
	attempted int
	failed    int
	failures  map[string]int
	metrics   map[string]float64
}

// check records one checked operation; a non-nil err fails it under
// the check's name.
func (r *run) check(name string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if r.failures[name] == 0 {
		fmt.Fprintf(r.log, "perfbench: check %s failed: %v\n", name, err)
	}
	r.failures[name]++
}

// checkBody checks a response body of rq's class (see checkBody in
// requests.go) and keeps the decision count of /v1/ber bodies.
func (r *run) checkBody(rq request, body []byte) error {
	bits, err := checkBody(rq, body)
	if bits > 0 {
		r.berDecisions.Store(int64(bits))
	}
	return err
}

// set records a metric value; the first value set for a name wins, so
// a workload's own measurement is not replaced by a fallback probe.
func (r *run) set(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.metrics[name]; !ok {
		r.metrics[name] = v
	}
}

// traced reports whether this is the per-layer run.
func (r *run) traced() bool { return r.tr != nil }

// metricOut is one reported metric.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// wanted lists the metrics a run must report.
func wanted(traced bool) []string {
	if !traced {
		return endToEnd
	}
	var out []string
	for name := range units {
		if !slices.Contains(endToEnd, name) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func main() { os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr)) }

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: figures, serve_cold or serve_hot")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "seconds the run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	spans := fs.String("spans", "", "span file a traced run writes (default .bench_build/spans/<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload figures|serve_cold|serve_hot, --seconds >= 1 and --trace 0|1 (got %q, %d, %d)\n",
			*workload, *seconds, *trace)
		return 2
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		log:      stderr,
		failures: make(map[string]int),
		metrics:  make(map[string]float64),
	}
	if *trace == 1 {
		r.tr = newTracer()
	}
	// A run takes the measured window plus seconds of set-up and
	// ladder; a hang past two more minutes cancels in-flight work and
	// fails the run.
	ctx, cancel := context.WithTimeout(context.Background(), r.seconds+2*time.Minute)
	defer cancel()
	if err := runner(ctx, r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}
	if !r.traced() {
		rss, err := peakRSSMiB()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		r.set("peak_rss_mb", rss)
	} else {
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", "spans", r.workload+".json")
		}
		if err := writeSpans(path, r.tr.Spans()); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: spans written to %s\n", path)
	}

	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricOut)}
	var missing []string
	for _, name := range wanted(r.traced()) {
		v, ok := r.metrics[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		res.Metrics[name] = metricOut{Value: v, Unit: units[name]}
	}
	if len(missing) > 0 {
		fmt.Fprintf(stderr, "perfbench: %s measured no %s\n", r.workload, strings.Join(missing, ", "))
		return 1
	}
	res.Correct = r.failed == 0 && r.attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		names := make([]string, 0, len(r.failures))
		for name, n := range r.failures {
			names = append(names, fmt.Sprintf("%s (%d)", name, n))
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: %d of %d checked operations failed: %s\n", r.failed, r.attempted, strings.Join(names, ", "))
		return 1
	}
	return 0
}

// segments runs body over the measured window. An untraced run gives
// it one untraced segment. A traced run splits the window into
// quarters, untraced, traced, traced, untraced, so that a linear drift
// of the machine falls on both kinds alike, and reports the tracing
// overhead from the throughput of each kind; body returns how many
// operations completed in its segment.
func segments(ctx context.Context, r *run, body func(ctx context.Context, tr *Tracer, until time.Time) (ops int, err error)) error {
	if !r.traced() {
		_, err := body(ctx, nil, time.Now().Add(r.seconds))
		return err
	}
	var ops [2]int
	var took [2]time.Duration
	for _, kind := range []int{0, 1, 1, 0} {
		var tr *Tracer
		if kind == 1 {
			tr = r.tr
		}
		t0 := time.Now()
		n, err := body(ctx, tr, t0.Add(r.seconds/4))
		if err != nil {
			return err
		}
		ops[kind] += n
		took[kind] += time.Since(t0)
	}
	untraced := ratio(float64(ops[0]), took[0].Seconds())
	traced := ratio(float64(ops[1]), took[1].Seconds())
	r.set("trace.overhead_pct", (ratio(untraced, traced)-1)*100)
	return nil
}

// timeSetup runs setup setupReps times and records the median as
// setup_s; the first run is timed from process start. Every set-up but
// the last is torn down again.
func timeSetup[T any](r *run, setup func() (T, error), teardown func(T)) (T, error) {
	var last T
	took := make([]float64, 0, setupReps)
	for i := range setupReps {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		v, err := setup()
		if err != nil {
			return last, err
		}
		took = append(took, time.Since(t0).Seconds())
		if i < setupReps-1 {
			teardown(v)
		}
		last = v
	}
	r.set("setup_s", median(took))
	return last, nil
}
