package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sync"
)

// facadeSample is one facade cell timed beside its layer-by-layer
// twin, for runner.cell_overhead_ms.
type facadeSample struct {
	probe bool // op id refers to the probe recorder's spans
	op    int
	ms    float64
}

// layerData is everything a traced run gathers for the per-layer
// metrics. Spans of the workload's own path are in main; spans of the
// paths it does not take, driven on its leading cells, are in probe. A
// metric comes from main when the workload's path produces it.
type layerData struct {
	main, probe []span

	facade []facadeSample
	hitMS  []float64 // facade time of warm cache hits

	rcHits, rcLookups int64 // result-cache counters of the caches the run used
	memoHits, jobs    int64 // daemon memo hits among the jobs submitted

	// Tracing overhead: the workload's own root span, traced, against
	// the same calls made untraced.
	mu          sync.Mutex // guards the untraced counters (serve-mix clients share them)
	tracedRoot  string
	untracedNS  int64
	untracedOps int
}

// finishTraced tallies a traced run, prints its digest, adds the
// per-layer metrics and writes the spans out.
func finishTraced(o options, ld *layerData, ops []opRecord) (*result, error) {
	r := &result{}
	tally(r, ops)
	printDigest(o, ops)
	if err := perLayer(r, ld, ops[:min(digestOps, len(ops))]); err != nil {
		return nil, err
	}
	path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	spans := append(append([]span(nil), ld.main...), ld.probe...)
	if err := writeSpans(path, spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(spans), path)
	r.Correct = r.Failed == 0
	return r, nil
}

// perLayer adds every per-layer metric. counted are the ops whose
// simulated statistics the sim.* and friends average: the digest
// prefix, identical across runs of a seed.
func perLayer(r *result, ld *layerData, counted []opRecord) error {
	mainT, probeT := layerTotals(ld.main), layerTotals(ld.probe)
	pick := func(name string) (layerTotal, error) {
		if t, ok := mainT[name]; ok {
			return t, nil
		}
		if t, ok := probeT[name]; ok {
			return t, nil
		}
		return layerTotal{}, fmt.Errorf("no %s spans recorded", name)
	}
	var err error
	// perOp is a layer's mean self time (ms) or allocations per op.
	perOp := func(name string, allocs bool) float64 {
		t, e := pick(name)
		if e != nil {
			err = e
			return math.NaN()
		}
		if allocs {
			return float64(t.Allocs) / float64(t.Ops)
		}
		return float64(t.SelfNS) / 1e6 / float64(t.Ops)
	}
	for _, name := range []string{"kernel.build", "gpu.new", "gpu.run", "gpu.verify"} {
		r.add(name+"_ms", perOp(name, false), "ms")
		r.add(name+"_allocs", perOp(name, true), "count")
	}
	if t, e := pick("gpu.run"); e == nil && t.Work > 0 {
		r.add("gpu.run_ns_per_cycle", float64(t.SelfNS)/float64(t.Work), "ns")
	} else {
		return fmt.Errorf("gpu.run spans carry no simulated cycles")
	}
	r.add("dram.clone_ms", perOp("dram.clone", false), "ms")
	r.add("dram.equal_ms", perOp("dram.equal", false), "ms")
	if t, e := pick("dram.clone"); e == nil {
		r.add("dram.touched_slots", float64(t.Work)/float64(t.Ops), "count")
	}
	r.add("pim.replay_ms", perOp("pim.replay", false), "ms")

	var cyc, cmds, acts, hits, cols, fst, ost float64
	for _, op := range counted {
		st := op.run
		if st == nil {
			continue
		}
		cyc += float64(coreCycles(st))
		cmds += float64(st.PIMCommands)
		acts += float64(st.ActCmds)
		hits += float64(st.RowHits)
		cols += float64(st.RowHits + st.RowMisses)
		fst += float64(st.FenceStallCycles)
		ost += float64(st.OLStallCycles)
	}
	n := float64(len(counted))
	r.add("sim.cycles", cyc/n, "count")
	r.add("pim.cmds", cmds/n, "count")
	r.add("memctrl.act_cmds", acts/n, "count")
	r.add("memctrl.row_hit_ratio", hits/cols, "ratio")
	r.add("core.fence_stall_cycles", fst/n, "count")
	r.add("core.ol_stall_cycles", ost/n, "count")

	r.add("runner.cell_overhead_ms", cellOverhead(ld), "ms")
	r.add("runner.hit_ms", mean(ld.hitMS), "ms")
	r.add("runner.decode_ms", perOp("runner.decode", false), "ms")
	r.add("rcache.get_ms", perOp("rcache.get", false), "ms")
	r.add("rcache.put_ms", perOp("rcache.put", false), "ms")
	r.add("rcache.hit_ratio", ratio(ld.rcHits, ld.rcLookups), "ratio")
	for _, name := range []string{"serve.submit", "serve.await", "serve.result", "serve.healthz"} {
		r.add(name+"_ms", perOp(name, false), "ms")
	}
	r.add("serve.memo_hit_ratio", ratio(ld.memoHits, ld.jobs), "ratio")

	// Tracing overhead: the traced root spans of the workload's own
	// path against the identical calls made with tracing off.
	var tracedNS int64
	tracedOps := 0
	for _, s := range ld.main {
		if s.Parent < 0 && s.Name == ld.tracedRoot {
			tracedNS += s.dur()
			tracedOps++
		}
	}
	traced := float64(tracedOps) / (float64(tracedNS) / 1e9)
	untraced := float64(ld.untracedOps) / (float64(ld.untracedNS) / 1e9)
	fmt.Printf("tracing: traced_ops=%d untraced_ops=%d\n", tracedOps, ld.untracedOps)
	r.add("trace.ops_per_s", traced, "1/s")
	r.add("trace.untraced_ops_per_s", untraced, "1/s")
	r.add("trace.overhead_pct", (untraced/traced-1)*100, "%")
	return err
}

// cellOverhead is the mean, over facade-timed cells, of the facade
// cell time minus the four blocking layers measured for the same cell.
func cellOverhead(ld *layerData) float64 {
	sums := func(spans []span) map[int]float64 {
		out := make(map[int]float64)
		for _, s := range spans {
			for _, name := range coldLayerSpans {
				if s.Name == name {
					out[s.Op] += float64(s.dur()) / 1e6
				}
			}
		}
		return out
	}
	mainS, probeS := sums(ld.main), sums(ld.probe)
	var diffs []float64
	for _, f := range ld.facade {
		layers := mainS
		if f.probe {
			layers = probeS
		}
		if l, ok := layers[f.op]; ok {
			diffs = append(diffs, f.ms-l)
		}
	}
	return mean(diffs)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return float64(a) / float64(b)
}
