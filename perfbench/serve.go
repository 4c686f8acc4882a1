package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

const (
	// clients is the closed loop's concurrency: one client per core of
	// the 2-core machines the benchmark is sized for. The two loop
	// clients are the only connections the server sees.
	clients = 2
	// reqHeader carries a traced request's id to the server. Headers
	// are not part of the server's cache key.
	reqHeader = "X-Perfbench-Request"
	// sampleEvery is the /healthz sampling period in traced segments.
	sampleEvery = 5 * time.Millisecond
	// hitReplays is how many times a hit probe replays its bodies.
	hitReplays = 10
)

// pathClass maps a request path to its endpoint class.
func pathClass(path string) string {
	switch {
	case path == "/v1/ber":
		return "ber"
	case path == "/v1/yield":
		return "yield"
	case path == "/v1/image/gamma":
		return "gamma"
	case path == "/v1/image/edge":
		return "edge"
	case strings.HasPrefix(path, "/v1/figures/"):
		return "figure"
	}
	return "other"
}

// tracedHandler wraps the server to record a server-side span for
// every request that carries a request id.
type tracedHandler struct {
	next http.Handler
	tr   *Tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
	if h.tr == nil || err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	sp := h.tr.Begin("serve", id, id)
	h.next.ServeHTTP(w, r)
	sp.End("serve/" + pathClass(r.URL.Path) + "/" + w.Header().Get("X-Cache"))
}

// harness is one in-process server with production defaults, on a
// loopback listener, and the client transport that talks to it.
type harness struct {
	srv       *serve.Server
	hs        *http.Server
	base      string
	transport *http.Transport
	client    *http.Client
	served    chan error

	mu      sync.Mutex
	samples [3][]float64 // queue depth, running jobs, slot occupancy
}

func startHarness(tr *Tracer) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	srv := serve.New(serve.Config{})
	transport := &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}
	h := &harness{
		srv:       srv,
		hs:        &http.Server{Handler: tracedHandler{next: srv, tr: tr}, ReadHeaderTimeout: 10 * time.Second},
		base:      "http://" + ln.Addr().String(),
		transport: transport,
		client:    &http.Client{Transport: transport},
		served:    make(chan error, 1),
	}
	go func() { h.served <- h.hs.Serve(ln) }()
	if _, err := h.health(); err != nil {
		h.stop()
		return nil, err
	}
	return h, nil
}

// stop drains the server, closes every connection and waits for the
// serving goroutine to return.
func (h *harness) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	h.srv.Drain(ctx)
	err := h.hs.Shutdown(ctx)
	h.transport.CloseIdleConnections()
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	if err != nil {
		return fmt.Errorf("stopping the server: %w", err)
	}
	return nil
}

// healthBody is the part of the /healthz shape the benchmark reads.
type healthBody struct {
	Status string `json:"status"`
	Queue  struct {
		Depth   int `json:"depth"`
		Running int `json:"running"`
	} `json:"queue"`
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	InFlight    int   `json:"in_flight"`
	Slots       int   `json:"slots"`
	WriteErrors int64 `json:"write_errors"`
}

// health reads /healthz in-process through ServeHTTP, so sampling
// opens no connection of its own.
func (h *harness) health() (healthBody, error) {
	rec := httptest.NewRecorder()
	h.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var hb healthBody
	if rec.Code != http.StatusOK {
		return hb, fmt.Errorf("/healthz answered %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &hb); err != nil {
		return hb, fmt.Errorf("/healthz body: %w", err)
	}
	if hb.Status != "ok" || hb.Slots < 1 {
		return hb, fmt.Errorf("/healthz reports status %q with %d slots", hb.Status, hb.Slots)
	}
	return hb, nil
}

// sampleWhile samples /healthz every sampleEvery until stop closes.
func (h *harness) sampleWhile(stop <-chan struct{}) error {
	t := time.NewTicker(sampleEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return nil
		case <-t.C:
		}
		hb, err := h.health()
		if err != nil {
			return err
		}
		h.mu.Lock()
		h.samples[0] = append(h.samples[0], float64(hb.Queue.Depth))
		h.samples[1] = append(h.samples[1], float64(hb.Queue.Running))
		h.samples[2] = append(h.samples[2], float64(hb.InFlight)/float64(hb.Slots))
		h.mu.Unlock()
	}
}

// reply is one answered request.
type reply struct {
	status  int
	xcache  string
	body    []byte // aliases the caller's buffer
	latency time.Duration
}

// do sends rq and reads the whole response into buf. The latency runs
// from the send to the last body byte. Under a tracer the request is a
// client span whose id travels in reqHeader.
func (h *harness) do(ctx context.Context, tr *Tracer, rq request, buf *bytes.Buffer) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	sp := tr.Begin("client", 0, 0)
	if sp.ID() != 0 {
		req.Header.Set(reqHeader, strconv.FormatInt(sp.ID(), 10))
	}
	t0 := time.Now()
	resp, err := h.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	rep := reply{status: resp.StatusCode, xcache: resp.Header.Get("X-Cache"), body: buf.Bytes(), latency: time.Since(t0)}
	if sp.ID() != 0 {
		sp.End("client/" + rq.class + "/" + rep.xcache)
	}
	return rep, err
}

// loopStats accumulates what the closed loop's clients observe.
type loopStats struct {
	mu                     sync.Mutex
	latency                *histogram // of 200 responses, in ms
	sent, ok, hits, misses int
	got503                 int
}

func newLoopStats() *loopStats { return &loopStats{latency: newHistogram()} }

func (s *loopStats) add(rep reply, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sent++
	if err != nil {
		return
	}
	switch rep.xcache {
	case "hit":
		s.hits++
	case "miss":
		s.misses++
	}
	if rep.status == http.StatusServiceUnavailable {
		s.got503++
	}
	if rep.status == http.StatusOK {
		s.ok++
		s.latency.add(ms(rep.latency))
	}
}

func (s *loopStats) okCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ok
}

// checkReply is the shared response check: a 200 with the expected
// X-Cache, then a body check.
func checkReply(rep reply, err error, xcache string, body func() error) error {
	if err != nil {
		return err
	}
	if rep.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", rep.status, rep.body)
	}
	if rep.xcache != xcache {
		return fmt.Errorf("X-Cache %q, want %q", rep.xcache, xcache)
	}
	return body()
}

// closedLoop runs op on each of the clients back to back, each
// client sending its next request only after the previous one
// completed, until until passes or op reports no more work. It
// returns once every client has stopped.
func closedLoop(ctx context.Context, until time.Time, op func(ctx context.Context, buf *bytes.Buffer) (more bool, err error)) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(until) {
				if err := ctx.Err(); err != nil {
					errs[c] = err
					return
				}
				more, err := op(ctx, &buf)
				if err != nil {
					errs[c] = err
					return
				}
				if !more {
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// sendAll sends every request of list once over the closed loop,
// checking each as a cache miss, and returns the response bodies.
func (h *harness) sendAll(ctx context.Context, r *run, tr *Tracer, st *loopStats, name string, list []request) ([][]byte, error) {
	bodies := make([][]byte, len(list))
	var next atomic.Int64
	err := closedLoop(ctx, time.Now().Add(time.Hour), func(ctx context.Context, buf *bytes.Buffer) (bool, error) {
		i := int(next.Add(1) - 1)
		if i >= len(list) {
			return false, nil
		}
		rep, err := h.do(ctx, tr, list[i], buf)
		st.add(rep, err)
		r.check(name, checkReply(rep, err, "miss", func() error { return r.checkBody(list[i], rep.body) }))
		bodies[i] = bytes.Clone(rep.body)
		return true, ctx.Err()
	})
	return bodies, err
}

// replay sends each of list rounds times as cache hits; want, when
// given, holds the exact body each must return.
func (h *harness) replay(ctx context.Context, r *run, tr *Tracer, st *loopStats, name string, list []request, want [][]byte, rounds int) error {
	var next atomic.Int64
	return closedLoop(ctx, time.Now().Add(time.Hour), func(ctx context.Context, buf *bytes.Buffer) (bool, error) {
		i := int(next.Add(1) - 1)
		if i >= rounds*len(list) {
			return false, nil
		}
		rq := list[i%len(list)]
		rep, err := h.do(ctx, tr, rq, buf)
		st.add(rep, err)
		r.check(name, checkReply(rep, err, "hit", func() error {
			if want != nil {
				return sameBody(rep.body, want[i%len(list)])
			}
			return r.checkBody(rq, rep.body)
		}))
		return true, ctx.Err()
	})
}

func sameBody(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("hit body of %d bytes differs from the %d-byte body the miss returned", len(got), len(want))
	}
	return nil
}

// measure runs the workload's closed loop over the measured window.
// send issues stream request i and records it. Traced segments sample
// /healthz; the loop's end-to-end metrics are set from untraced runs.
func (h *harness) measure(ctx context.Context, r *run, st *loopStats, send func(ctx context.Context, tr *Tracer, i int, buf *bytes.Buffer) error) error {
	var next atomic.Int64
	var elapsed time.Duration
	err := segments(ctx, r, func(ctx context.Context, tr *Tracer, until time.Time) (int, error) {
		before := st.okCount()
		var sampled chan error
		stop := make(chan struct{})
		if tr != nil {
			sampled = make(chan error, 1)
			go func() { sampled <- h.sampleWhile(stop) }()
		}
		t0 := time.Now()
		err := closedLoop(ctx, until, func(ctx context.Context, buf *bytes.Buffer) (bool, error) {
			return true, send(ctx, tr, int(next.Add(1)-1), buf)
		})
		elapsed += time.Since(t0)
		close(stop)
		if sampled != nil {
			err = errors.Join(err, <-sampled)
		}
		return st.okCount() - before, err
	})
	if err != nil {
		return err
	}
	if r.traced() {
		h.setSampled(r, st)
		return nil
	}
	r.set("ops_per_s", float64(st.ok)/elapsed.Seconds())
	r.set("latency_p50_ms", st.latency.quantile(0.5))
	r.set("latency_p99_ms", st.latency.quantile(0.99))
	fmt.Fprintf(r.log, "perfbench: %s: %d requests, %d answered 200\n", r.workload, st.sent, st.ok)
	return nil
}

// setSampled sets the serve-layer means of the /healthz samples and
// the cache and rejection ratios of the requests st saw.
func (h *harness) setSampled(r *run, st *loopStats) {
	h.mu.Lock()
	r.set("serve.queue_depth_mean", mean(h.samples[0]))
	r.set("serve.running_mean", mean(h.samples[1]))
	r.set("engine.slot_occupancy", mean(h.samples[2]))
	h.mu.Unlock()
	st.mu.Lock()
	r.set("serve.cache_hit_ratio", ratio(float64(st.hits), float64(st.hits+st.misses)))
	r.set("serve.rejected_ratio", ratio(float64(st.got503), float64(st.sent)))
	st.mu.Unlock()
}

// checkHealth is the closing in-process /healthz check: no failed
// response writes and the cache counters the workload implies.
func (h *harness) checkHealth(r *run, cache func(hb healthBody) error) {
	hb, err := h.health()
	if err == nil && hb.WriteErrors != 0 {
		err = fmt.Errorf("%d response writes failed", hb.WriteErrors)
	}
	if err == nil {
		err = cache(hb)
	}
	r.check("serve.healthz", err)
}

// runServeCold drives the closed loop with a stream of distinct
// bodies, so every request misses the cache and runs compute.
func runServeCold(ctx context.Context, r *run) error {
	warm := warmRequests(r.seed)
	h, err := timeSetup(r, func() (*harness, error) {
		h, err := startHarness(r.tr)
		if err != nil {
			return nil, err
		}
		if _, err := h.sendAll(ctx, r, r.tr, newLoopStats(), "serve_cold.warmup", warm); err != nil {
			return nil, errors.Join(err, h.stop())
		}
		return h, nil
	}, func(h *harness) { _ = h.stop() }) // a failed teardown shows in the next set-up
	if err != nil {
		return err
	}
	st := newLoopStats()
	err = h.measure(ctx, r, st, func(ctx context.Context, tr *Tracer, i int, buf *bytes.Buffer) error {
		if i >= maxColdRequests {
			return fmt.Errorf("stream exhausted after %d requests", maxColdRequests)
		}
		rq := coldRequest(r.seed, i)
		rep, err := h.do(ctx, tr, rq, buf)
		st.add(rep, err)
		r.check("serve_cold.response", checkReply(rep, err, "miss", func() error { return r.checkBody(rq, rep.body) }))
		return ctx.Err()
	})
	if err != nil {
		return errors.Join(err, h.stop())
	}
	h.checkHealth(r, func(hb healthBody) error {
		if hb.Cache.Hits != 0 {
			return fmt.Errorf("cache answered %d hits to distinct bodies", hb.Cache.Hits)
		}
		return nil
	})
	if r.traced() {
		// The measured stream never hits; replay recent bodies, which
		// are still cached, for the hit-path spans.
		n := st.sent
		var recent []request
		for i := max(0, n-60); i < n-40; i++ {
			recent = append(recent, coldRequest(r.seed, i))
		}
		if err := h.replay(ctx, r, r.tr, newLoopStats(), "serve_cold.replay", recent, nil, hitReplays); err != nil {
			return errors.Join(err, h.stop())
		}
		if err := runLadder(ctx, r, newRegistry(), nil); err != nil {
			return errors.Join(err, h.stop())
		}
		layerMetrics(r)
	}
	return h.stop()
}

// runServeHot primes a small fixed set of bodies during set-up and then
// replays them, so every measured request is a cache hit.
func runServeHot(ctx context.Context, r *run) error {
	set := hotSet(r.seed)
	var primed [][]byte
	h, err := timeSetup(r, func() (*harness, error) {
		h, err := startHarness(r.tr)
		if err != nil {
			return nil, err
		}
		if primed, err = h.sendAll(ctx, r, r.tr, newLoopStats(), "serve_hot.prime", set); err != nil {
			return nil, errors.Join(err, h.stop())
		}
		return h, nil
	}, func(h *harness) { _ = h.stop() })
	if err != nil {
		return err
	}
	order := hotOrder(r.seed, 1<<14)
	st := newLoopStats()
	err = h.measure(ctx, r, st, func(ctx context.Context, tr *Tracer, i int, buf *bytes.Buffer) error {
		slot := order[i%len(order)]
		rep, err := h.do(ctx, tr, set[slot], buf)
		st.add(rep, err)
		r.check("serve_hot.response", checkReply(rep, err, "hit", func() error { return sameBody(rep.body, primed[slot]) }))
		return ctx.Err()
	})
	if err != nil {
		return errors.Join(err, h.stop())
	}
	h.checkHealth(r, func(hb healthBody) error {
		if hb.Cache.Misses != int64(len(set)) {
			return fmt.Errorf("cache counted %d misses, want only the %d primed", hb.Cache.Misses, len(set))
		}
		return nil
	})
	if r.traced() {
		if err := runLadder(ctx, r, newRegistry(), nil); err != nil {
			return errors.Join(err, h.stop())
		}
		layerMetrics(r)
	}
	return h.stop()
}

// serveProbe gives a workload that does not serve HTTP its serve-layer
// numbers: a fresh server primed with the hot set (misses), which is
// then replayed (hits) with /healthz sampled throughout.
func serveProbe(ctx context.Context, r *run) error {
	h, err := startHarness(r.tr)
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	sampled := make(chan error, 1)
	go func() { sampled <- h.sampleWhile(stop) }()
	set := hotSet(r.seed)
	st := newLoopStats()
	primed, err := h.sendAll(ctx, r, r.tr, st, "probe.prime", set)
	if err == nil {
		err = h.replay(ctx, r, r.tr, st, "probe.replay", set, primed, hitReplays)
	}
	close(stop)
	err = errors.Join(err, <-sampled)
	if err != nil {
		return errors.Join(err, h.stop())
	}
	h.setSampled(r, st)
	return h.stop()
}
