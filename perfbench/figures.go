package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/figures"
)

// registry is the figure registry with the span name of each render
// built once, so untraced passes allocate nothing of the benchmark's.
type registry struct {
	figs  []figures.Figure
	spans []string
}

func newRegistry() registry {
	figs := figures.All()
	spans := make([]string, len(figs))
	for i, f := range figs {
		spans[i] = "figures.render/" + f.Key
	}
	return registry{figs: figs, spans: spans}
}

// passOrder is the render order of pass p: a permutation of the
// registry drawn from the workload seed alone.
func passOrder(seed uint64, pass, n int) []int {
	return rand.New(rand.NewPCG(seed, uint64(pass))).Perm(n)
}

func identity(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// passTiming is one registry pass: its wall time and each render's,
// indexed by registry position.
type passTiming struct {
	took    time.Duration
	renders []time.Duration
}

// pass renders every figure once, in order, into outs (one buffer per
// registry position). Under a tracer the pass is a span named name
// with one child span per render.
func (g registry) pass(ctx context.Context, tr *Tracer, name string, parent int64, order []int, cfg figures.Config, outs []bytes.Buffer) (passTiming, error) {
	pt := passTiming{renders: make([]time.Duration, len(g.figs))}
	sp := tr.Begin(name, parent, 0)
	t0 := time.Now()
	for _, i := range order {
		outs[i].Reset()
		rs := tr.Begin(g.spans[i], sp.ID(), sp.ID())
		r0 := time.Now()
		if err := g.figs[i].Render(ctx, &outs[i], cfg); err != nil {
			return pt, fmt.Errorf("rendering figure %s: %w", g.figs[i].Key, err)
		}
		pt.renders[i] = time.Since(r0)
		rs.End()
	}
	pt.took = time.Since(t0)
	sp.End()
	return pt, nil
}

// diffOutputs names every figure whose output differs from ref.
func (g registry) diffOutputs(outs []bytes.Buffer, ref [][]byte) error {
	var bad []string
	for i := range g.figs {
		if !bytes.Equal(outs[i].Bytes(), ref[i]) {
			bad = append(bad, g.figs[i].Key)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("output of %s differs from the reference pass", strings.Join(bad, ", "))
	}
	return nil
}

func snapshot(outs []bytes.Buffer) [][]byte {
	ref := make([][]byte, len(outs))
	for i := range outs {
		ref[i] = bytes.Clone(outs[i].Bytes())
	}
	return ref
}

// runFigures is the batch workload: back-to-back passes over the whole
// registry at figures.Defaults() on the parallel engine, each pass in
// a seeded order, each output byte-identical to the first pass's.
func runFigures(ctx context.Context, r *run) error {
	par, err := engine.Get("parallel")
	if err != nil {
		return err
	}
	g := newRegistry()
	n := len(g.figs)
	cfg := figures.Defaults()
	cfg.Engine = par
	outs := make([]bytes.Buffer, n)

	// Set-up is the configuration plus one warm pass, which fills the
	// program's lazy caches and yields the reference outputs.
	var ref [][]byte
	_, err = timeSetup(r, func() (struct{}, error) {
		if _, err := g.pass(ctx, r.tr, "figures.pass/parallel", 0, identity(n), cfg, outs); err != nil {
			return struct{}{}, err
		}
		if ref == nil {
			ref = snapshot(outs)
			return struct{}{}, nil
		}
		r.check("figures.identical", g.diffOutputs(outs, ref))
		return struct{}{}, nil
	}, func(struct{}) {})
	if err != nil {
		return err
	}
	printAnchors(r, g, ref)

	var passSec, renderMS []float64
	pass := 0
	err = segments(ctx, r, func(ctx context.Context, tr *Tracer, until time.Time) (int, error) {
		done := 0
		for time.Now().Before(until) {
			pt, err := g.pass(ctx, tr, "figures.pass/parallel", 0, passOrder(r.seed, pass, n), cfg, outs)
			pass++
			if err != nil {
				return done, err
			}
			r.check("figures.identical", g.diffOutputs(outs, ref))
			passSec = append(passSec, pt.took.Seconds())
			renderMS = append(renderMS, durationsMS(pt.renders)...)
			done++
		}
		return done, nil
	})
	if err != nil {
		return err
	}
	if !r.traced() {
		r.set("ops_per_s", 1/median(passSec))
		r.set("latency_p50_ms", median(renderMS))
		r.set("latency_p99_ms", quantile(renderMS, 0.99))
		fmt.Fprintf(r.log, "perfbench: figures: %d passes, %d renders\n", len(passSec), len(renderMS))
		return nil
	}
	if err := runLadder(ctx, r, g, ref); err != nil {
		return err
	}
	if err := serveProbe(ctx, r); err != nil {
		return err
	}
	layerMetrics(r)
	return nil
}

// printAnchors writes the Summary figure, the paper's in-text anchors
// against this reproduction, to the log. They are printed for the
// reader and never gated on.
func printAnchors(r *run, g registry, ref [][]byte) {
	for i, f := range g.figs {
		if f.Key == "summary" {
			fmt.Fprintf(r.log, "%s\n", ref[i])
		}
	}
}
