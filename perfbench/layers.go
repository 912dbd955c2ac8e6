package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"

	"orderlight/internal/gpu"
	"orderlight/internal/isa"
	"orderlight/internal/kernel"
	"orderlight/internal/pim"
	"orderlight/internal/rcache"
	"orderlight/internal/runner"
	"orderlight/internal/serve"
	"orderlight/internal/stats"
)

// The functions here are the single facade call each op makes and,
// for traced runs, the same op taken apart into its layers' public
// calls. Every layer function takes a *recorder; a nil recorder runs
// the identical calls untraced, which is how tracing overhead is
// measured.

// facadeCell runs one cell through serve.Execute, the execution path
// the library facade, the CLIs and the daemon share. A non-nil cache
// makes it the result-cache path.
func facadeCell(ctx context.Context, c cellSpec, cache *rcache.Cache) (*stats.Run, error) {
	req := c.request()
	req.Opts.Cache = cache
	res, err := serve.Execute(ctx, &req)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", c, err)
	}
	return res.Run, checkRun(c, res.Run)
}

// checkRun requires a functionally verified, correct simulation.
func checkRun(c cellSpec, st *stats.Run) error {
	if st == nil || !st.Verified || !st.Correct {
		return fmt.Errorf("%v: result not verified correct", c)
	}
	return nil
}

// Span names of the cold path's blocking layers: the facade cell time
// minus these is the runner's own per-cell overhead.
var coldLayerSpans = []string{"kernel.build", "gpu.new", "gpu.run", "gpu.verify"}

// coldLayers runs one cell layer by layer: kernel.Build, gpu.NewMachine,
// (*Machine).Run with verification off, (*Machine).Verify. It then
// re-derives the verify data path from outside: Store.Clone of the
// initial image, pim.Replay of every channel's expanded program, and
// Store.Equal against the final image. That second check is independent
// of the machine's own Verify, so the op is only correct when both
// agree. touched is the initial image's slot count.
func coldLayers(rec *recorder, op int, c cellSpec) (st *stats.Run, touched int, err error) {
	root := rec.begin("cold", op, -1, false)
	defer rec.end(root)
	var last int // id of the span call opened most recently
	call := func(name string, f func() error) error {
		last = rec.begin(name, op, root, true)
		defer rec.end(last)
		return f()
	}

	cfg := c.config()
	cfg.Run.Verify = false // Verify is called (and timed) on its own below
	spec, err := kernel.ByName(c.Kernel)
	if err != nil {
		return nil, 0, err
	}
	var k *kernel.Kernel
	if err := call("kernel.build", func() (err error) {
		k, err = kernel.Build(cfg, spec, c.Bytes)
		return err
	}); err != nil {
		return nil, 0, err
	}
	touched = k.Store.Touched()
	ref := k.Store
	_ = call("dram.clone", func() error { ref = k.Store.Clone(); return nil })
	rec.setWork(last, int64(touched))

	var m *gpu.Machine
	if err := call("gpu.new", func() (err error) {
		m, err = gpu.NewMachine(cfg, k.Store, k.Programs)
		return err
	}); err != nil {
		return nil, 0, err
	}
	if err := call("gpu.run", func() (err error) {
		st, err = m.Run()
		return err
	}); err != nil {
		return nil, 0, fmt.Errorf("%v: %w", c, err)
	}
	rec.setWork(last, coreCycles(st))
	if err := call("gpu.verify", m.Verify); err != nil {
		return nil, 0, fmt.Errorf("%v: %w", c, err)
	}

	n := cfg.CommandsPerTile()
	nslots := n * cfg.Memory.GroupsPerChannel
	for _, p := range k.Programs {
		var reqs []isa.Request
		_ = call("gpu.expand", func() error { reqs = gpu.ExpandProgram(k.Geom, n, p); return nil })
		if err := call("pim.replay", func() error { return pim.Replay(ref, p.Channel, nslots, reqs) }); err != nil {
			return nil, 0, fmt.Errorf("%v: reference replay: %w", c, err)
		}
	}
	var equal bool
	_ = call("dram.equal", func() error { equal = k.Store.Equal(ref); return nil })
	if !equal {
		return nil, 0, fmt.Errorf("%v: final image differs from the replayed reference", c)
	}
	return st, touched, checkRun(c, st)
}

// shadowKey keys a cell in the benchmark's shadow result cache. The
// runner's own cell key is unexported, so the cache layer is timed on a
// cache the benchmark owns, holding the same payload (a gob-encoded
// runner.CellResult) the runner stores.
func shadowKey(c cellSpec) string { return "perfbench|" + c.String() }

// shadowPut stores a cell's result in the shadow cache, timing the
// encode and the Put.
func shadowPut(rec *recorder, op int, cache *rcache.Cache, c cellSpec, st *stats.Run) error {
	var buf bytes.Buffer
	id := rec.begin("runner.encode", op, -1, true)
	err := gob.NewEncoder(&buf).Encode(&runner.CellResult{Run: st})
	rec.end(id)
	if err != nil {
		return fmt.Errorf("%v: encode: %w", c, err)
	}
	id = rec.begin("rcache.put", op, -1, true)
	err = cache.Put(shadowKey(c), buf.Bytes())
	rec.end(id)
	return err
}

// hitLayers takes a warm cache hit apart as the runner performs it:
// rcache Get, gob decode of the CellResult, and the kernel image
// rebuild the hit path does for every served cell.
func hitLayers(rec *recorder, op int, cache *rcache.Cache, c cellSpec) (*stats.Run, error) {
	root := rec.begin("hit", op, -1, false)
	defer rec.end(root)

	id := rec.begin("rcache.get", op, root, true)
	data, ok := cache.Get(shadowKey(c))
	rec.end(id)
	if !ok {
		return nil, fmt.Errorf("%v: shadow cache miss on a warm op", c)
	}
	var cr runner.CellResult
	id = rec.begin("runner.decode", op, root, true)
	err := gob.NewDecoder(bytes.NewReader(data)).Decode(&cr)
	rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("%v: decode: %w", c, err)
	}
	spec, err := kernel.ByName(c.Kernel)
	if err != nil {
		return nil, err
	}
	id = rec.begin("kernel.build", op, root, true)
	_, err = kernel.Build(c.config(), spec, c.Bytes)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	return cr.Run, checkRun(c, cr.Run)
}

// daemon is an in-process serve.Local behind its HTTP handler on a
// loopback port, with a client that talks to it over the wire.
type daemon struct {
	local  *serve.Local
	client *serve.Client
	stop   func() error
}

// facadeJob submits one job over HTTP and awaits its result with
// serve.Await (watch stream, then result fetch). The job is forgotten
// afterwards, as the in-process facade does, so the daemon's job table
// does not grow with the run.
func facadeJob(ctx context.Context, d *daemon, c cellSpec) (*serve.JobResult, error) {
	id, err := d.client.Submit(ctx, c.request())
	if err != nil {
		return nil, fmt.Errorf("%v: submit: %w", c, err)
	}
	defer d.local.Forget(id)
	res, err := serve.Await(ctx, d.client, id, nil)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", c, err)
	}
	return res, checkRun(c, res.Run)
}

// Root span names of jobs taken apart, by class.
const (
	repeatRoot = "job.repeat"
	newRoot    = "job.new"
)

// jobLayers is facadeJob taken apart: Submit, the watch stream up to
// its terminal event, and the result fetch, each a separate HTTP call.
// repeat names the root span by the job's class.
func jobLayers(ctx context.Context, rec *recorder, op int, d *daemon, c cellSpec, repeat bool) (*serve.JobResult, error) {
	rootName := newRoot
	if repeat {
		rootName = repeatRoot
	}
	root := rec.begin(rootName, op, -1, false)
	defer rec.end(root)

	id := rec.begin("serve.submit", op, root, false)
	jid, err := d.client.Submit(ctx, c.request())
	rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("%v: submit: %w", c, err)
	}
	defer d.local.Forget(jid)

	id = rec.begin("serve.await", op, root, false)
	events, err := d.client.Watch(ctx, jid)
	if err == nil {
		for range events {
			// Drain to the terminal event; the stream closes after it.
		}
	}
	rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("%v: watch: %w", c, err)
	}

	id = rec.begin("serve.result", op, root, false)
	res, err := d.client.Result(ctx, jid)
	rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("%v: result: %w", c, err)
	}
	return res, checkRun(c, res.Run)
}

// healthz times one bare HTTP round trip to the daemon.
func healthz(ctx context.Context, rec *recorder, op int, d *daemon) (serve.HealthInfo, error) {
	id := rec.begin("serve.healthz", op, -1, false)
	h, err := d.client.Healthz(ctx)
	rec.end(id)
	return h, err
}
