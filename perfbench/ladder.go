package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/figures"
	"repro/internal/stochastic"
)

// ladderReps is how many timed repetitions each rung takes; a rung
// reports their median.
const ladderReps = 5

// sink keeps the ladder's results alive so no loop is optimised away.
var sink uint64

// runLadder measures the layers below the workload one at a time: a
// registry pass on the serial and on the parallel engine, circuit and
// die builds, and the stochastic word kernels. It runs in traced runs
// only, after the measured window.
func runLadder(ctx context.Context, r *run, g registry, ref [][]byte) error {
	root := r.tr.Begin("ladder", 0, 0)
	defer root.End()
	if err := enginePasses(ctx, r, g, ref, root.ID()); err != nil {
		return err
	}
	if err := coreRungs(r, root.ID()); err != nil {
		return err
	}
	stochasticRungs(r, root.ID())
	return nil
}

// enginePasses alternates traced passes on the parallel and serial
// engines, checks every output against the reference (the first
// parallel pass when ref is nil), and counts the allocations of one
// untraced serial pass.
func enginePasses(ctx context.Context, r *run, g registry, ref [][]byte, parent int64) error {
	n := len(g.figs)
	outs := make([]bytes.Buffer, n)
	var took [2][]float64
	for i := range 2 * 3 {
		kind := i % 2
		eng := []string{"parallel", "serial"}[kind]
		cfg, err := engineConfig(eng)
		if err != nil {
			return err
		}
		pt, err := g.pass(ctx, r.tr, "figures.pass/"+eng, parent, identity(n), cfg, outs)
		if err != nil {
			return err
		}
		if ref == nil {
			ref = snapshot(outs)
		} else {
			r.check("figures.serial_matches_parallel", g.diffOutputs(outs, ref))
		}
		took[kind] = append(took[kind], ms(pt.took))
	}
	parallel, serial := median(took[0]), median(took[1])
	r.set("engine.serial_pass_ms", serial)
	r.set("engine.parallel_pass_ms", parallel)
	r.set("engine.speedup", serial/parallel)
	fmt.Fprintf(r.log, "perfbench: engine.speedup is serial over parallel pass time at GOMAXPROCS=%d\n", runtime.GOMAXPROCS(0))

	cfg, err := engineConfig("serial")
	if err != nil {
		return err
	}
	allocs, err := countAllocs(func() error {
		_, err := g.pass(ctx, nil, "", 0, identity(n), cfg, outs)
		return err
	})
	if err != nil {
		return err
	}
	r.check("figures.serial_matches_parallel", g.diffOutputs(outs, ref))
	r.set("figures.pass_allocs", float64(allocs))
	return nil
}

func engineConfig(name string) (figures.Config, error) {
	e, err := engine.Get(name)
	if err != nil {
		return figures.Config{}, err
	}
	cfg := figures.Defaults()
	cfg.Engine = e
	return cfg, nil
}

// countAllocs reports how many heap objects fn allocates.
func countAllocs(fn func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, err
}

// rung times body ladderReps times, each as a span under parent, and
// returns the median nanoseconds per item, body doing items items per
// call.
func rung(r *run, name string, parent int64, items int, body func()) float64 {
	took := make([]float64, 0, ladderReps)
	for range ladderReps {
		sp := r.tr.Begin(name, parent, 0)
		t0 := time.Now()
		body()
		took = append(took, float64(time.Since(t0)))
		sp.End()
	}
	return median(took) / float64(items)
}

// coreRungs builds the paper circuit with its power table, and single
// dies of the standard yield study.
func coreRungs(r *run, parent int64) error {
	const builds = 200
	p := core.PaperParams()
	build := func() error {
		for range builds {
			c, err := core.NewCircuit(p)
			if err != nil {
				return fmt.Errorf("building the paper circuit: %w", err)
			}
			_ = c.PowerTable()
		}
		return nil
	}
	allocs, err := countAllocs(build)
	if err != nil {
		return err
	}
	r.set("core.circuit_allocs", float64(allocs)/builds)
	per := rung(r, "core.circuit_build", parent, builds, func() { _ = build() })
	r.set("core.circuit_build_us", per/1e3)

	const dies = 40
	study := figures.YieldStudySpec(figures.Defaults().Samples)
	die := func() {
		for i := range dies {
			_ = study.Die(i)
		}
	}
	allocs, _ = countAllocs(func() error { die(); return nil })
	r.set("core.die_allocs", float64(allocs)/dies)
	per = rung(r, "core.die", parent, dies, die)
	r.set("core.die_ms", per/1e6)
	return nil
}

// stochasticRungs times the word kernels: Gaussian samples, SNG words,
// and plane words of a stochastic multiply (two planes filled, ANDed
// and counted).
func stochasticRungs(r *run, parent int64) {
	g := stochastic.NewGaussian(stochastic.NewSplitMix64(r.seed))
	buf := make([]float64, 4096)
	const fills = 64
	per := rung(r, "stochastic.gaussian", parent, fills*len(buf), func() {
		for range fills {
			g.Fill(buf)
		}
	})
	r.set("stochastic.gaussian_ns", per)

	sng := stochastic.NewSNG(stochastic.NewSplitMix64(r.seed + 1))
	const words = 1 << 16
	per = rung(r, "stochastic.sng_word", parent, words, func() {
		for range words {
			sink ^= sng.NextWord(0.3, 64)
		}
	})
	r.set("stochastic.sng_word_ns", per)

	src := stochastic.NewSplitMix64(r.seed + 2)
	const bits, rounds = 64 * 4096, 16
	nw := stochastic.WordsFor(bits)
	a, b, prod := make([]uint64, nw), make([]uint64, nw), make([]uint64, nw)
	per = rung(r, "stochastic.plane_word", parent, rounds*nw, func() {
		for range rounds {
			stochastic.FillPlane(src, 0.3, bits, a)
			stochastic.FillPlane(src, 0.6, bits, b)
			stochastic.AndPlanes(prod, a, b)
			sink += uint64(stochastic.PlaneOnes(prod))
		}
	})
	r.set("stochastic.plane_word_ns", per)
}
