// Package stattest holds the confidence bound every Monte Carlo test in
// the repository checks an event count against, in place of
// hand-picked tolerances such as "measured within a factor 2 of
// analytic".
//
// A bound is an acceptance interval for the number of successes k in
// n independent Bernoulli(p) trials, set at a stated per-check
// false-failure rate α: a correct simulator lands outside it with
// probability at most α. The interval comes from the Chernoff–Hoeffding
// relative-entropy tail bound,
//
//	P(X ≥ k) ≤ exp(−n·D(k/n ‖ p))   for k ≥ np,
//
// and its mirror image for the lower tail, with each tail given α/2.
// The bound is rigorous at every n and p — no normal approximation,
// so it stays valid for the handful of expected errors of a deep-BER
// point, where it collapses to "no errors at all" — and its width
// tracks the binomial standard deviation (about ±5.4σ at α = 1e-6 for
// large np).
//
// Like internal/engine/enginetest, the package does not import
// testing: Check takes the two methods of testing.TB it needs.
package stattest

import (
	"fmt"
	"math"
)

// FalseFailureRate is the per-check false-failure rate every bound in
// the repository's statistical tests is set at.
const FalseFailureRate = 1e-6

// klDivergence is the relative entropy D(q ‖ p) of Bernoulli(q) from
// Bernoulli(p), in nats, with 0·ln 0 = 0.
func klDivergence(q, p float64) float64 {
	d := 0.0
	if q > 0 {
		d += q * math.Log(q/p)
	}
	if q < 1 {
		d += (1 - q) * math.Log((1-q)/(1-p))
	}
	return d
}

// BinomialBounds returns the acceptance interval [lo, hi] for the
// number of successes in n independent Bernoulli(p) trials at
// two-sided false-failure rate alpha: under the hypothesis, a count
// below lo or above hi has total probability at most alpha. n < 1
// gives [0, 0]; p is clamped to [0, 1], and the degenerate
// probabilities admit only the certain count.
func BinomialBounds(n int, p, alpha float64) (lo, hi int) {
	if n < 1 {
		return 0, 0
	}
	if p <= 0 {
		return 0, 0
	}
	if p >= 1 {
		return n, n
	}
	limit := math.Log(2 / alpha) // each tail gets alpha/2
	mean := float64(n) * p
	tail := func(k int) bool { // k is rejected
		return float64(n)*klDivergence(float64(k)/float64(n), p) >= limit
	}
	// The relative entropy grows monotonically away from the mean on
	// each side, so each edge is a binary search: hi is the last
	// accepted count above the mean, lo the first accepted one below.
	a, b := int(math.Floor(mean)), n+1 // tail(b) holds by convention
	for b-a > 1 {
		m := a + (b-a)/2
		if tail(m) {
			b = m
		} else {
			a = m
		}
	}
	hi = a
	a, b = -1, int(math.Ceil(mean)) // tail(a) holds by convention
	for b-a > 1 {
		m := a + (b-a)/2
		if tail(m) {
			a = m
		} else {
			b = m
		}
	}
	lo = b
	return lo, hi
}

// TB is the part of testing.TB that Check reports through.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
}

// Check fails t unless k successes in n trials are consistent with
// success probability p at FalseFailureRate, naming the check what.
// It reports whether the count was accepted.
func Check(t TB, what string, k, n int, p float64) bool {
	t.Helper()
	lo, hi := BinomialBounds(n, p, FalseFailureRate)
	if k < lo || k > hi {
		t.Errorf("%s: %d of %d, outside [%d, %d] for p = %.4g (expected %.4g, false-failure rate %g)",
			what, k, n, lo, hi, p, float64(n)*p, FalseFailureRate)
		return false
	}
	return true
}

// Count recovers an event count from a rate measured over n trials,
// such as a bit-error rate over a slot count. It fails loudly rather
// than rounding a rate that no count over n could have produced.
func Count(rate float64, n int) (int, error) {
	k := math.Round(rate * float64(n))
	if k < 0 || k > float64(n) || math.Abs(k-rate*float64(n)) > 1e-6 {
		return 0, fmt.Errorf("stattest: rate %g is not a count over %d trials", rate, n)
	}
	return int(k), nil
}
