package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/figures"
)

func TestSameSeedSameInputs(t *testing.T) {
	for i := range 200 {
		a, b := coldRequest(7, i), coldRequest(7, i)
		if a.path != b.path || !bytes.Equal(a.body, b.body) {
			t.Fatalf("cold request %d differs between two draws of seed 7", i)
		}
	}
	if !slices.Equal(hotOrder(7, 500), hotOrder(7, 500)) {
		t.Fatal("hot order differs between two draws of seed 7")
	}
	for i, rq := range hotSet(7) {
		if !bytes.Equal(rq.body, hotSet(7)[i].body) {
			t.Fatalf("hot body %d differs between two draws of seed 7", i)
		}
	}
	for p := range 20 {
		if !slices.Equal(passOrder(7, p, 18), passOrder(7, p, 18)) {
			t.Fatalf("figure order of pass %d differs between two draws of seed 7", p)
		}
	}
	if slices.Equal(passOrder(7, 0, 18), passOrder(8, 0, 18)) && slices.Equal(passOrder(7, 1, 18), passOrder(8, 1, 18)) {
		t.Error("seeds 7 and 8 give the same figure orders")
	}
	if bytes.Equal(coldRequest(7, 0).body, coldRequest(8, 0).body) && bytes.Equal(coldRequest(7, 1).body, coldRequest(8, 1).body) {
		t.Error("seeds 7 and 8 give the same cold requests")
	}
}

func TestStreamsHoldTheMix(t *testing.T) {
	want := map[string]int{}
	for _, kind := range mix {
		want[kind]++
	}
	for b := range 50 {
		got := map[string]int{}
		for _, slot := range blockOrder(3, b) {
			got[mix[slot]]++
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("block %d holds %v, want %v", b, got, want)
		}
	}
	// Every cold body, and every warm-up body, is distinct: each
	// request of the stream must miss the cache.
	seen := map[string]int{}
	for i := range 4000 {
		rq := coldRequest(3, i)
		key := rq.path + string(rq.body)
		if j, dup := seen[key]; dup {
			t.Fatalf("cold requests %d and %d share %s %s", j, i, rq.path, rq.body)
		}
		seen[key] = i
	}
	for _, rq := range warmRequests(3) {
		if _, dup := seen[rq.path+string(rq.body)]; dup {
			t.Fatalf("warm-up request %s %s is also in the cold stream", rq.path, rq.body)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}, {0.99, 3.97}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if !slices.Equal(xs, []float64{4, 1, 3, 2}) {
		t.Error("quantile reordered its input")
	}
	if got := median([]float64{5}); got != 5 {
		t.Errorf("median of one sample = %g", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
	if ratio(3, 0) != 0 || ratio(3, 4) != 0.75 || mean([]float64{1, 2, 6}) != 3 || mean(nil) != 0 {
		t.Error("ratio or mean arithmetic is wrong")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram()
	var xs []float64
	x := uint64(1)
	for range 20000 {
		x = splitmix(x)
		v := 0.05 * math.Exp(6*float64(x>>11)/(1<<53)) // 0.05 ms to 20 ms
		xs = append(xs, v)
		h.add(v)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		got, want := h.quantile(q), quantile(xs, q)
		if math.Abs(got/want-1) > 0.002 {
			t.Errorf("histogram quantile %g = %g, exact %g", q, got, want)
		}
	}
	if !math.IsNaN(newHistogram().quantile(0.5)) {
		t.Error("quantile of an empty histogram is not NaN")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Start: 25, End: 35},
		{ID: 6, Start: 200, End: 210},
	}
	self := selfTimes(spans)
	// Span 1 is covered over [10,50) and [90,100).
	want := map[int64]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestTracerRecordsSpans(t *testing.T) {
	var off *Tracer
	sp := off.Begin("x", 0, 0)
	sp.End()
	if sp.ID() != 0 || off.Spans() != nil {
		t.Fatal("a nil tracer recorded a span")
	}
	tr := newTracer()
	root := tr.Begin("root", 0, 0)
	child := tr.Begin("child", root.ID(), root.ID())
	child.End("child/renamed")
	root.End()
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Name != "child/renamed" || spans[0].Parent != root.ID() ||
		spans[0].Req != root.ID() || spans[1].Req != root.ID() || spans[1].End < spans[0].End {
		t.Fatalf("spans = %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "spans", "x.json")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 2 || !strings.Contains(string(data), `"self_ns"`) {
		t.Fatalf("span file holds %d lines: %s", lines, data)
	}
}

func berBody(bits int, measured, analytic float64) []byte {
	b, _ := json.Marshal(map[string]any{"bits": bits, "seed": 1, "points": []map[string]float64{
		{"probe_mw": 1, "measured_ber": measured, "analytic_ber": analytic},
	}})
	return b
}

func imageBody(op string, pgm []byte) []byte {
	b, _ := json.Marshal(map[string]any{"op": op, "width": 64, "height": 64, "pgm_base64": base64.StdEncoding.EncodeToString(pgm)})
	return b
}

func TestChecksHaveTeeth(t *testing.T) {
	ber := request{class: "ber", path: "/v1/ber"}
	yield := request{class: "yield", path: "/v1/yield"}
	gamma := request{class: "gamma", path: "/v1/image/gamma"}
	fig := request{class: "figure", path: "/v1/figures/6a"}
	pgm := append([]byte("P5\n64 64\n255\n"), make([]byte, 64*64)...)
	cases := []struct {
		name string
		rq   request
		body []byte
		ok   bool
	}{
		{"ber on the analytic rate", ber, berBody(200000, 1e-3, 1e-3), true},
		{"ber 4σ off", ber, berBody(200000, (200+4*14.1)/200000, 1e-3), true},
		{"ber 8σ off", ber, berBody(200000, (200+8*14.1)/200000, 1e-3), false},
		{"ber ten times the analytic rate", ber, berBody(200000, 1e-3, 1e-4), false},
		{"ber with no errors at a 1e-1 rate", ber, berBody(200000, 0, 1e-1), false},
		{"truncated ber body", ber, berBody(200000, 1e-3, 1e-3)[:20], false},
		{"yield", yield, []byte(`{"points":[{"samples":200,"pass":150,"yield":0.75}]}`), true},
		{"yield disagreeing with its pass count", yield, []byte(`{"points":[{"samples":200,"pass":150,"yield":0.5}]}`), false},
		{"yield with no points", yield, []byte(`{"points":[]}`), false},
		{"image", gamma, imageBody("gamma", pgm), true},
		{"image of the wrong operator", gamma, imageBody("edge", pgm), false},
		{"image with a short raster", gamma, imageBody("gamma", pgm[:len(pgm)-1]), false},
		{"image that is not a PGM", gamma, imageBody("gamma", append([]byte("P2\n64 64\n255\n"), make([]byte, 64*64)...)), false},
		{"figure", fig, []byte(`{"figure":"6a","title":"Fig 6(a)","output":"table"}`), true},
		{"figure under the wrong key", fig, []byte(`{"figure":"7a","title":"Fig 7(a)","output":"table"}`), false},
		{"figure with no output", fig, []byte(`{"figure":"6a","title":"Fig 6(a)","output":""}`), false},
	}
	for _, c := range cases {
		_, err := checkBody(c.rq, c.body)
		if (err == nil) != c.ok {
			t.Errorf("%s: check error %v, want ok=%v", c.name, err, c.ok)
		}
	}

	body := []byte(`{"figure":"6a"}`)
	if sameBody(body, body) != nil || sameBody([]byte(`{"figure":"6b"}`), body) == nil {
		t.Error("hit body comparison misses a changed byte")
	}
	pass := func() error { return nil }
	if checkReply(reply{status: http.StatusOK, xcache: "hit"}, nil, "hit", pass) != nil ||
		checkReply(reply{status: http.StatusServiceUnavailable, xcache: "hit"}, nil, "hit", pass) == nil ||
		checkReply(reply{status: http.StatusOK, xcache: "miss"}, nil, "hit", pass) == nil ||
		checkReply(reply{}, fmt.Errorf("connection reset"), "hit", pass) == nil {
		t.Error("reply check passes a bad status, cache outcome or transport error")
	}

	g := registry{figs: []figures.Figure{{Key: "a"}, {Key: "b"}}}
	outs := make([]bytes.Buffer, 2)
	outs[0].WriteString("alpha")
	outs[1].WriteString("beta")
	ref := snapshot(outs)
	if err := g.diffOutputs(outs, ref); err != nil {
		t.Fatal(err)
	}
	outs[1].WriteString("!")
	if err := g.diffOutputs(outs, ref); err == nil || !strings.Contains(err.Error(), "b") {
		t.Errorf("corrupted figure output not named: %v", err)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the emitted names and units in
// step with the declared ones.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("%s: unit %q declared, %q emitted", m.Name, m.Unit, units[m.Name])
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("%s: unit %q declared, %q emitted", m.Name, m.Unit, units[m.Name])
		}
	}
	slices.Sort(e2e)
	slices.Sort(layer)
	if !slices.Equal(e2e, slices.Sorted(slices.Values(wanted(false)))) {
		t.Errorf("end-to-end metrics declared %v, emitted %v", e2e, wanted(false))
	}
	if !slices.Equal(layer, wanted(true)) {
		t.Errorf("per-layer metrics declared %v, emitted %v", layer, wanted(true))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is declared but has no runner", w.Name)
		}
	}
}

// TestRuns drives short runs end to end: an untraced serve_hot run and
// a traced figures run, whose last line must be a correct result
// holding every metric of its kind.
func TestRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	spans := filepath.Join(t.TempDir(), "spans.json")
	for _, c := range []struct {
		args   []string
		traced bool
	}{
		{[]string{"--workload", "serve_hot", "--seed", "3", "--seconds", "1", "--trace", "0"}, false},
		{[]string{"--workload", "figures", "--seed", "3", "--seconds", "1", "--trace", "1", "--spans", spans}, true},
	} {
		var out, log bytes.Buffer
		if code := mainErr(c.args, &out, &log); code != 0 {
			t.Fatalf("%v exited %d:\n%s", c.args, code, log.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(wanted(c.traced)) {
			t.Errorf("%v: result %+v", c.args, res)
		}
	}
	if _, err := os.Stat(spans); err != nil {
		t.Errorf("traced run wrote no span file: %v", err)
	}
	var out, log bytes.Buffer
	if code := mainErr([]string{"--workload", "nope"}, &out, &log); code == 0 || out.Len() != 0 {
		t.Errorf("an unknown workload exited %d and printed %q", code, out.String())
	}
}
