package main

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
)

// The endpoint mix, as one block of mixBlock request slots: 30%
// /v1/ber, 25% /v1/yield, 15% each gamma and edge, 15% figures. Every
// block of a stream holds the slots in a seeded order, so each run
// sends exactly this mix whatever the seed.
const mixBlock = 20

var mix = [mixBlock]string{
	"ber", "ber", "ber", "ber", "ber", "ber",
	"yield", "yield", "yield", "yield", "yield",
	"gamma", "gamma", "gamma",
	"edge", "edge", "edge",
	"figure/6a", "figure/7a", "figure/yield",
}

// maxColdRequests caps one serve_cold stream. Figure bodies are made
// unique by index (the 6a and 7a renders ignore "samples", the yield
// render ignores "grid" and "sweep"), which stays injective below
// 63×255 indices; set-up warm-up requests use indices from here up.
const maxColdRequests = 15000

// request is one HTTP request of a stream.
type request struct {
	class string // ber, yield, gamma, edge or figure
	path  string
	body  []byte
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// makeRequest builds the request for mix slot slot at stream index i.
// Seeds are drawn from (seed, i), so no two indices share a body.
func makeRequest(seed uint64, slot, i int) request {
	// A zero seed would select the server's default seed.
	u := max(splitmix(seed^splitmix(uint64(i)))>>1, 1)
	switch kind := mix[slot]; kind {
	case "ber":
		return request{"ber", "/v1/ber", fmt.Appendf(nil, `{"seed":%d}`, u)}
	case "yield":
		return request{"yield", "/v1/yield", fmt.Appendf(nil, `{"seed":%d}`, u)}
	case "gamma":
		return request{"gamma", "/v1/image/gamma", fmt.Appendf(nil, `{"source":{"synth":"gradient","width":64,"height":64},"seed":%d}`, u)}
	case "edge":
		return request{"edge", "/v1/image/edge", fmt.Appendf(nil, `{"source":{"synth":"radial","width":64,"height":64},"seed":%d}`, u)}
	case "figure/yield":
		return request{"figure", "/v1/figures/yield", fmt.Appendf(nil, `{"grid":%d,"sweep":%d}`, 2+i%63, 2+(i/63)%255)}
	default: // figure/6a, figure/7a
		return request{"figure", "/v1/figures/" + strings.TrimPrefix(kind, "figure/"), fmt.Appendf(nil, `{"samples":%d}`, 1+i)}
	}
}

// blockOrder is the seeded order of the slots in block b of a stream.
func blockOrder(seed uint64, b int) []int {
	return rand.New(rand.NewPCG(seed, 0xB10C^uint64(b))).Perm(mixBlock)
}

// coldRequest is request i of the serve_cold stream; every body of the
// stream is distinct, so every request misses the cache.
func coldRequest(seed uint64, i int) request {
	return makeRequest(seed, blockOrder(seed, i/mixBlock)[i%mixBlock], i)
}

// warmRequests is one block of the mix with indices outside any cold
// stream, for untimed warm-up.
func warmRequests(seed uint64) []request {
	out := make([]request, mixBlock)
	for slot := range out {
		out[slot] = makeRequest(seed, slot, maxColdRequests+slot)
	}
	return out
}

// hotSet is the fixed set serve_hot primes and then replays: one body
// per mix slot.
func hotSet(seed uint64) []request {
	set := make([]request, mixBlock)
	for slot := range set {
		set[slot] = makeRequest(seed, slot, slot)
	}
	return set
}

// hotOrder is the first n entries of the serve_hot stream, as indices
// into hotSet, holding the mix in every block.
func hotOrder(seed uint64, n int) []int {
	out := make([]int, 0, n)
	for b := 0; len(out) < n; b++ {
		out = append(out, blockOrder(seed, b)...)
	}
	return out[:n]
}

// berSigmas is how many binomial standard deviations a measured error
// count may sit from the Eq. (9) expectation before the check fails.
// At 6σ (plus one count of slack for rounding) a correct simulator
// fails one point in about 10^9.
const berSigmas = 6

// berWithinBound reports whether measured, a bit-error rate over bits
// decisions, is consistent with the analytic rate p.
func berWithinBound(measured, p float64, bits int) bool {
	if bits%2 != 0 {
		bits++ // the simulator balances the worst-case pattern pair
	}
	n := float64(bits)
	k := measured * n
	return math.Abs(k-n*p) <= berSigmas*math.Sqrt(n*p*(1-p))+1
}

// checkBody validates a 200 response body of the request's class and
// returns, for /v1/ber, the decisions it made (bits × points).
func checkBody(rq request, body []byte) (bits int, err error) {
	switch rq.class {
	case "ber":
		var b struct {
			Bits   int `json:"bits"`
			Points []struct {
				ProbeMW     float64 `json:"probe_mw"`
				MeasuredBER float64 `json:"measured_ber"`
				AnalyticBER float64 `json:"analytic_ber"`
			} `json:"points"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			return 0, fmt.Errorf("ber body: %w", err)
		}
		if b.Bits < 1 || len(b.Points) == 0 {
			return 0, fmt.Errorf("ber body has %d bits and %d points", b.Bits, len(b.Points))
		}
		for _, p := range b.Points {
			if !berWithinBound(p.MeasuredBER, p.AnalyticBER, b.Bits) {
				return 0, fmt.Errorf("ber at %g mW: measured %g is outside the %dσ binomial bound of analytic %g at %d bits",
					p.ProbeMW, p.MeasuredBER, berSigmas, p.AnalyticBER, b.Bits)
			}
		}
		return b.Bits * len(b.Points), nil
	case "yield":
		var b struct {
			Points []struct {
				Samples int     `json:"samples"`
				Pass    int     `json:"pass"`
				Yield   float64 `json:"yield"`
			} `json:"points"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			return 0, fmt.Errorf("yield body: %w", err)
		}
		if len(b.Points) == 0 {
			return 0, fmt.Errorf("yield body has no points")
		}
		for _, p := range b.Points {
			if p.Samples < 1 || p.Pass < 0 || p.Pass > p.Samples || math.Abs(p.Yield-float64(p.Pass)/float64(p.Samples)) > 1e-9 {
				return 0, fmt.Errorf("yield point %+v is inconsistent", p)
			}
		}
		return 0, nil
	case "gamma", "edge":
		var b struct {
			Op        string `json:"op"`
			Width     int    `json:"width"`
			Height    int    `json:"height"`
			PGMBase64 string `json:"pgm_base64"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			return 0, fmt.Errorf("image body: %w", err)
		}
		pgm, err := base64.StdEncoding.DecodeString(b.PGMBase64)
		if err != nil {
			return 0, fmt.Errorf("image body: %w", err)
		}
		header := fmt.Sprintf("P5\n%d %d\n255\n", b.Width, b.Height)
		if b.Op != rq.class || b.Width != 64 || b.Height != 64 || !strings.HasPrefix(string(pgm), header) || len(pgm) != len(header)+64*64 {
			return 0, fmt.Errorf("image body: op %q, %dx%d, %d PGM bytes; want a %s 64x64 binary PGM", b.Op, b.Width, b.Height, len(pgm), rq.class)
		}
		return 0, nil
	default:
		var b struct {
			Figure string `json:"figure"`
			Output string `json:"output"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			return 0, fmt.Errorf("figure body: %w", err)
		}
		if "/v1/figures/"+b.Figure != rq.path || b.Output == "" {
			return 0, fmt.Errorf("figure body: figure %q with %d output bytes for %s", b.Figure, len(b.Output), rq.path)
		}
		return 0, nil
	}
}
