package main

import (
	"slices"
	"strings"
	"time"
)

// namedFigures are the renders reported one by one; every other key is
// summed into figures.rest_ms.
var namedFigures = []string{"noise", "waterfall", "yield", "edge", "video", "tradeoff", "sweep", "7a", "7b", "ablation"}

// missClasses are the endpoint classes with a serve.<class>_miss_ms
// metric.
var missClasses = []string{"ber", "yield", "gamma", "edge", "figure"}

// layerMetrics derives the span-based per-layer metrics of a traced
// run: render times of the parallel registry passes, server handler
// times by endpoint and cache outcome, client transport time, and the
// transient layer's decision rate.
func layerMetrics(r *run) {
	spans := r.tr.Spans()
	self := selfTimes(spans)
	parallelPass := make(map[int64]bool)
	for _, s := range spans {
		if s.Name == "figures.pass/parallel" {
			parallelPass[s.ID] = true
		}
	}

	renders := make(map[string][]float64)
	rest := make(map[int64]float64) // parallel pass ID → summed unnamed renders
	miss := make(map[string][]float64)
	var hitUS, transportUS []float64
	var berTime time.Duration
	var berCount int
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "figures.render/"):
			if !parallelPass[s.Parent] {
				continue
			}
			key := strings.TrimPrefix(s.Name, "figures.render/")
			renders[key] = append(renders[key], ms(s.Dur()))
			if !slices.Contains(namedFigures, key) {
				rest[s.Parent] += ms(s.Dur())
			}
		case strings.HasPrefix(s.Name, "serve/"):
			class, cache, _ := strings.Cut(strings.TrimPrefix(s.Name, "serve/"), "/")
			switch cache {
			case "miss":
				miss[class] = append(miss[class], ms(s.Dur()))
				if class == "ber" {
					berTime += s.Dur()
					berCount++
				}
			case "hit":
				hitUS = append(hitUS, float64(s.Dur())/float64(time.Microsecond))
			}
		case strings.HasPrefix(s.Name, "client/") && strings.HasSuffix(s.Name, "/hit"):
			// The server span is the only child, so self time is the
			// client's latency outside the handler.
			transportUS = append(transportUS, float64(self[s.ID])/float64(time.Microsecond))
		}
	}
	for _, key := range namedFigures {
		if xs := renders[key]; len(xs) > 0 {
			r.set("figures."+key+"_ms", median(xs))
		}
	}
	if len(rest) > 0 {
		sums := make([]float64, 0, len(rest))
		for _, v := range rest {
			sums = append(sums, v)
		}
		slices.Sort(sums)
		r.set("figures.rest_ms", median(sums))
	}
	for _, class := range missClasses {
		if xs := miss[class]; len(xs) > 0 {
			r.set("serve."+class+"_miss_ms", median(xs))
		}
	}
	if len(hitUS) > 0 {
		r.set("serve.hit_handler_us", median(hitUS))
	}
	if len(transportUS) > 0 {
		r.set("serve.transport_us", median(transportUS))
	}
	if berCount > 0 && berTime > 0 {
		r.set("transient.ber_bits_per_s", float64(r.berDecisions.Load())*float64(berCount)/berTime.Seconds())
	}
}
