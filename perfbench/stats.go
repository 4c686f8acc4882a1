package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs, interpolating
// linearly between the two nearest ranks. It is NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is num/den, and 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// histogram counts latencies in logarithmic buckets 0.1% wide from 1µs
// to 100s, so its memory stays fixed however many requests a run
// makes; a quantile interpolates within its bucket, within 0.1% of
// the exact value.
type histogram struct {
	counts []uint64
	n      uint64
}

const (
	histMinMS  = 1e-3
	histGrowth = 1.001
)

var histBuckets = int(math.Ceil(math.Log(1e5/histMinMS) / math.Log(histGrowth)))

func newHistogram() *histogram { return &histogram{counts: make([]uint64, histBuckets)} }

func (h *histogram) add(ms float64) {
	i := 0
	if ms > histMinMS {
		i = min(int(math.Log(ms/histMinMS)/math.Log(histGrowth)), len(h.counts)-1)
	}
	h.counts[i]++
	h.n++
}

// quantile returns the q-quantile of the recorded latencies, NaN for
// none.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n-1)
	var below uint64
	for i, c := range h.counts {
		if c == 0 || float64(below+c) <= rank {
			below += c
			continue
		}
		lo := histMinMS * math.Pow(histGrowth, float64(i))
		return lo * math.Pow(histGrowth, (rank-float64(below)+0.5)/float64(c))
	}
	return histMinMS * math.Pow(histGrowth, float64(len(h.counts)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// peakRSSMiB reads the process's peak resident set (VmHWM) from
// /proc/self/status.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return 0, fmt.Errorf("reading peak RSS: no VmHWM line in /proc/self/status")
}
