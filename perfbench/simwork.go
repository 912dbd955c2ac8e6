package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	"orderlight/internal/rcache"
	"orderlight/internal/stats"
)

// Stream salts keep each workload's generator independent of the
// others' for the same seed.
const (
	saltCold = 0xc01d
	saltWarm = 0x3a53
)

// probeOps is how many of a workload's leading cells a traced run
// sends down the paths the workload itself does not take, so every
// per-layer metric is measured on every workload's own cells.
const probeOps = 6

// runSimCold is sim-cold: in process, no result cache, runner
// parallelism 1, a seeded stream of distinct cells. Nearly all time is
// in kernel, gpu, sim, memctrl, dram and pim.
func runSimCold(ctx context.Context, o options) (*result, error) {
	reps := setupReps
	if o.trace {
		reps = 1 // a traced run reports no setup_s
	}
	setupS, err := medianSetup(reps, func(bool) error { return warmUp(ctx) })
	if err != nil {
		return nil, err
	}
	stream := newCellStream(o.seed, saltCold, simFootprints)
	if o.trace {
		return tracedSimCold(ctx, o, stream)
	}
	var ops []opRecord
	w := measure(func() {
		ops = timedOps(o.seconds, max(digestOps, minTailOps(tailPercentile[o.workload])), stream.next, func(c cellSpec) (*stats.Run, error) {
			return facadeCell(ctx, c, nil)
		})
	})
	r := &result{}
	tally(r, ops)
	printDigest(o, ops)
	if err := endToEnd(r, setupS, w, ops, tailPercentile[o.workload]); err != nil {
		return nil, err
	}
	r.Correct = r.Failed == 0
	return r, nil
}

// warmUp is sim-cold's set-up: the seed-independent warm-up cells,
// discarded, then a collection so the window starts from a settled
// heap.
func warmUp(ctx context.Context) error {
	for _, c := range warmupCells() {
		if _, err := facadeCell(ctx, c, nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	runtime.GC() // start the window from a settled heap
	return nil
}

// warmPool is sim-warm's state: a memory-only result cache filled with
// one cell per (kernel, primitive) pair, and each cell's cold result.
type warmPool struct {
	cells []cellSpec
	cache *rcache.Cache
	ref   map[cellSpec]string // runJSON of each cell's cold result
	cold  map[cellSpec]*stats.Run
}

// fillPool simulates every pool cell through the cached facade, then
// serves one warm-up round of hits (discarded).
func fillPool(ctx context.Context, cells []cellSpec) (*warmPool, error) {
	cache, err := rcache.Open("", 0)
	if err != nil {
		return nil, err
	}
	p := &warmPool{cells: cells, cache: cache, ref: make(map[cellSpec]string), cold: make(map[cellSpec]*stats.Run)}
	for _, c := range cells {
		run, err := facadeCell(ctx, c, cache)
		if err != nil {
			return nil, fmt.Errorf("fill: %w", err)
		}
		p.ref[c], p.cold[c] = runJSON(run), run
	}
	for _, c := range cells {
		if _, err := facadeCell(ctx, c, cache); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	runtime.GC() // start the window from a settled heap
	return p, nil
}

// poolOrder cycles through the pool in seeded rounds, each a fresh
// permutation.
func poolOrder(seed uint64, cells []cellSpec) func() cellSpec {
	rng := rand.New(rand.NewPCG(seed, saltWarm+1))
	var buf []int
	return func() cellSpec {
		if len(buf) == 0 {
			buf = rng.Perm(len(cells))
		}
		c := cells[buf[0]]
		buf = buf[1:]
		return c
	}
}

// checkHit requires a warm op to have been served by the cache with the
// cell's cold result.
func (p *warmPool) checkHit(c cellSpec, run *stats.Run) error {
	if runJSON(run) != p.ref[c] {
		return fmt.Errorf("%v: warm result differs from the cold one", c)
	}
	return nil
}

// runSimWarm is sim-warm: the sim-cold kind of cells against a result
// cache set-up filled. Every op is a runner cache hit (rcache Get, gob
// decode, kernel image rebuild); gpu and sim do no work.
func runSimWarm(ctx context.Context, o options) (*result, error) {
	cells := newCellStream(o.seed, saltWarm, simFootprints).take(len(pairs()))
	var pool *warmPool
	reps := setupReps
	if o.trace {
		reps = 1
	}
	setupS, err := medianSetup(reps, func(last bool) error {
		p, err := fillPool(ctx, cells)
		if last {
			pool = p
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	next := poolOrder(o.seed, cells)
	if o.trace {
		return tracedSimWarm(ctx, o, pool, next)
	}
	s0 := pool.cache.Stats()
	var ops []opRecord
	w := measure(func() {
		ops = timedOps(o.seconds, max(digestOps, minTailOps(tailPercentile[o.workload])), next, func(c cellSpec) (*stats.Run, error) {
			return facadeCell(ctx, c, pool.cache)
		})
	})
	for i := range ops {
		if op := &ops[i]; op.err == nil {
			if op.err = pool.checkHit(op.cell, op.run); op.err != nil {
				op.ms = math.Inf(1)
			}
		}
	}
	r := &result{}
	tally(r, ops)
	if s1 := pool.cache.Stats(); s1.Misses != s0.Misses {
		return nil, fmt.Errorf("%d warm ops missed the result cache", s1.Misses-s0.Misses)
	}
	printDigest(o, ops)
	if err := endToEnd(r, setupS, w, ops, tailPercentile[o.workload]); err != nil {
		return nil, err
	}
	r.Correct = r.Failed == 0
	return r, nil
}

// twinTimer times the untraced twin of a traced op: the same layer
// calls with a nil recorder.
func twinTimer(ld *layerData, f func() error) error {
	t0 := time.Now()
	err := f()
	ld.untracedNS += time.Since(t0).Nanoseconds()
	ld.untracedOps++
	return err
}

// alternate runs a and b in an order that flips with i, so neither the
// traced nor the untraced twin always runs second.
func alternate(i int, a, b func()) {
	if i%2 == 0 {
		a()
		b()
	} else {
		b()
		a()
	}
}

// tracedSimCold replays sim-cold's stream with every op made three
// times: the facade call (untraced, for the runner's own overhead), the
// layer-by-layer calls traced, and the same calls untraced (tracing
// overhead).
func tracedSimCold(ctx context.Context, o options, stream *cellStream) (*result, error) {
	ld := &layerData{}
	main := newRecorder()
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	var ops []opRecord
	for i := 0; i < digestOps || time.Now().Before(deadline); i++ {
		c := stream.next()
		t0 := time.Now()
		frun, err := facadeCell(ctx, c, nil)
		fms := float64(time.Since(t0).Nanoseconds()) / 1e6
		var st *stats.Run
		var terr, uerr error
		alternate(i,
			func() { st, _, terr = coldLayers(main, i, c) },
			func() { uerr = twinTimer(ld, func() error { _, _, e := coldLayers(nil, i, c); return e }) })
		err = firstErr(err, terr, uerr)
		if err == nil && runJSON(st) != runJSON(frun) {
			err = fmt.Errorf("%v: layer-by-layer result differs from the facade's", c)
		}
		ld.facade = append(ld.facade, facadeSample{op: i, ms: fms})
		ops = append(ops, opRecord{cell: c, run: st, err: err})
	}
	ld.main = main.snapshot()
	ld.tracedRoot = "cold"

	probe := newRecorder()
	cells := opCells(ops[:probeOps])
	if err := warmProbe(ctx, probe, ld, cells, warmProbeBase); err != nil {
		return nil, err
	}
	if err := serveProbe(ctx, probe, ld, cells, serveProbeBase); err != nil {
		return nil, err
	}
	ld.probe = probe.snapshot()
	return finishTraced(o, ld, ops)
}

// tracedSimWarm replays sim-warm's pool order with each op made as the
// facade hit (runner.hit_ms), the hit taken apart traced, and untraced.
func tracedSimWarm(ctx context.Context, o options, pool *warmPool, next func() cellSpec) (*result, error) {
	ld := &layerData{}
	main := newRecorder()
	shadow, err := rcache.Open("", 0)
	if err != nil {
		return nil, err
	}
	for i, c := range pool.cells {
		if err := shadowPut(main, setupOpBase+i, shadow, c, pool.cold[c]); err != nil {
			return nil, err
		}
	}
	s0 := pool.cache.Stats()
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	var ops []opRecord
	for i := 0; i < digestOps || time.Now().Before(deadline); i++ {
		c := next()
		t0 := time.Now()
		frun, err := facadeCell(ctx, c, pool.cache)
		ld.hitMS = append(ld.hitMS, float64(time.Since(t0).Nanoseconds())/1e6)
		if err == nil {
			err = pool.checkHit(c, frun)
		}
		var st *stats.Run
		var terr, uerr error
		alternate(i,
			func() { st, terr = hitLayers(main, i, shadow, c) },
			func() { uerr = twinTimer(ld, func() error { _, e := hitLayers(nil, i, shadow, c); return e }) })
		err = firstErr(err, terr, uerr)
		if err == nil {
			err = pool.checkHit(c, st)
		}
		ops = append(ops, opRecord{cell: c, run: st, err: err})
	}
	s1 := pool.cache.Stats()
	ld.rcHits += s1.Hits - s0.Hits
	ld.rcLookups += s1.Hits - s0.Hits + s1.Misses - s0.Misses
	ld.main = main.snapshot()
	ld.tracedRoot = "hit"

	probe := newRecorder()
	cells := pool.cells[:probeOps]
	if err := coldProbe(ctx, probe, ld, cells, coldProbeBase); err != nil {
		return nil, err
	}
	if err := serveProbe(ctx, probe, ld, cells, serveProbeBase); err != nil {
		return nil, err
	}
	ld.probe = probe.snapshot()
	return finishTraced(o, ld, ops)
}

// Op-id bases keep spans of different probes (and of set-up) apart in
// the span dump and in per-op sums.
const (
	setupOpBase    = 1_000_000
	coldProbeBase  = 2_000_000
	warmProbeBase  = 3_000_000
	serveProbeBase = 4_000_000
)

// coldProbe sends cells down the cold path: the facade call, then the
// layer-by-layer calls, which must agree.
func coldProbe(ctx context.Context, rec *recorder, ld *layerData, cells []cellSpec, base int) error {
	for i, c := range cells {
		t0 := time.Now()
		frun, err := facadeCell(ctx, c, nil)
		fms := float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil {
			return fmt.Errorf("cold probe: %w", err)
		}
		st, _, err := coldLayers(rec, base+i, c)
		if err != nil {
			return fmt.Errorf("cold probe: %w", err)
		}
		if runJSON(st) != runJSON(frun) {
			return fmt.Errorf("cold probe: %v: layer-by-layer result differs from the facade's", c)
		}
		ld.facade = append(ld.facade, facadeSample{probe: true, op: base + i, ms: fms})
	}
	return nil
}

// warmProbe sends cells down the cache path: a cold facade call fills a
// fresh cache (and the shadow cache), then a second facade call must be
// a hit (runner.hit_ms), then the hit is taken apart.
func warmProbe(ctx context.Context, rec *recorder, ld *layerData, cells []cellSpec, base int) error {
	cache, err := rcache.Open("", 0)
	if err != nil {
		return err
	}
	shadow, err := rcache.Open("", 0)
	if err != nil {
		return err
	}
	for i, c := range cells {
		run, err := facadeCell(ctx, c, cache)
		if err != nil {
			return fmt.Errorf("warm probe: %w", err)
		}
		if err := shadowPut(rec, base+i, shadow, c, run); err != nil {
			return fmt.Errorf("warm probe: %w", err)
		}
		h0 := cache.Stats().Hits
		t0 := time.Now()
		hit, err := facadeCell(ctx, c, cache)
		ld.hitMS = append(ld.hitMS, float64(time.Since(t0).Nanoseconds())/1e6)
		if err != nil {
			return fmt.Errorf("warm probe: %w", err)
		}
		if cache.Stats().Hits != h0+1 {
			return fmt.Errorf("warm probe: %v: second call was not a cache hit", c)
		}
		lrun, err := hitLayers(rec, base+i, shadow, c)
		if err != nil {
			return fmt.Errorf("warm probe: %w", err)
		}
		if runJSON(hit) != runJSON(run) || runJSON(lrun) != runJSON(run) {
			return fmt.Errorf("warm probe: %v: cached result differs from the cold one", c)
		}
	}
	s := cache.Stats()
	ld.rcHits += s.Hits
	ld.rcLookups += s.Hits + s.Misses
	return nil
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// opCells lists the ops' cells.
func opCells(ops []opRecord) []cellSpec {
	out := make([]cellSpec, len(ops))
	for i, op := range ops {
		out[i] = op.cell
	}
	return out
}
