package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"orderlight/internal/stats"
)

// digestOps is how many leading ops of a stream the simulated-statistics
// digest and the per-layer simulated counts cover. Every run completes
// at least this many, so the digest is a pure function of the seed: two
// runs of one seed, or a parent and a simulator-speed-only change, must
// print the same digest.
const digestOps = 24

// opRecord is one timed op.
type opRecord struct {
	cell cellSpec
	run  *stats.Run
	err  error
	ms   float64 // host latency; +Inf when the op failed
}

// window is one timed window's process-level measurements.
type window struct {
	elapsed time.Duration
	cpu     time.Duration
	mallocs uint64
}

// measure runs body as the timed window, bracketing it with CPU time
// and the heap allocation counter.
func measure(body func()) window {
	u0, m0, t0 := getUsage(), mallocs(), time.Now()
	body()
	el := time.Since(t0)
	u1, m1 := getUsage(), mallocs()
	return window{elapsed: el, cpu: u1.cpu - u0.cpu, mallocs: m1 - m0}
}

// timedOps runs ops until the window's seconds have passed and at least
// minOps have completed. A failed op stays in the sample with infinite
// latency: it missed every limit.
func timedOps(seconds float64, minOps int, next func() cellSpec, do func(cellSpec) (*stats.Run, error)) []opRecord {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var ops []opRecord
	for len(ops) < minOps || time.Now().Before(deadline) {
		c := next()
		t0 := time.Now()
		run, err := do(c)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil {
			ms = math.Inf(1)
		}
		ops = append(ops, opRecord{cell: c, run: run, err: err, ms: ms})
	}
	return ops
}

// runJSON is the canonical encoding of a cell's simulated statistics:
// what results are compared by and what the digest hashes.
func runJSON(st *stats.Run) string {
	b, err := json.Marshal(st)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return string(b)
}

// digest hashes the cells and statistics of the given ops in order.
func digest(ops []opRecord) string {
	h := sha256.New()
	for _, op := range ops {
		fmt.Fprintf(h, "%v\n%s\n", op.cell, runJSON(op.run))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// printDigest writes the digest line over the first digestOps ops.
func printDigest(o options, ops []opRecord) {
	n := min(digestOps, len(ops))
	fmt.Printf("digest: workload=%s seed=%d ops=%d sha256=%s\n", o.workload, o.seed, n, digest(ops[:n]))
}

// tally counts attempted and failed ops and reports the errors.
func tally(r *result, ops []opRecord) {
	r.Attempted += len(ops)
	for _, op := range ops {
		if op.err != nil {
			r.Failed++
			if r.Failed <= 5 {
				fmt.Printf("failed op: %v\n", op.err)
			}
		}
	}
}

// coreCycles is the simulated core-cycle count of a result.
func coreCycles(st *stats.Run) int64 {
	if st == nil {
		return 0
	}
	return st.ExecTime().CoreCycles()
}

// endToEnd adds the end-to-end metrics of a timed window, with
// op_tail_ms at percentile tp. It refuses (errors) when too few ops
// completed for that to be a real percentile.
func endToEnd(r *result, setupS float64, w window, ops []opRecord, tp float64) error {
	lat := make([]float64, len(ops))
	var cycles int64
	done := 0
	for i, op := range ops {
		lat[i] = op.ms
		cycles += coreCycles(op.run)
		if op.err == nil {
			done++
		}
	}
	sorted := sortedCopy(lat)
	p50, _ := percentile(sorted, 50)
	tv, beyond, ok := tail(sorted, tp)
	if !ok {
		return fmt.Errorf("op_tail_ms refused: %d ops leave fewer than %d samples beyond p%g", len(ops), minBeyond, tp)
	}
	fmt.Printf("samples: ops=%d op_tail=p%g beyond=%d\n", len(ops), tp, beyond)
	n, secs := float64(len(ops)), w.elapsed.Seconds()
	r.add("setup_s", setupS, "s")
	r.add("op_p50_ms", p50, "ms")
	r.add("op_tail_ms", tv, "ms")
	r.add("ops_per_s", float64(done)/secs, "1/s")
	r.add("cpu_ms_per_op", float64(w.cpu.Nanoseconds())/1e6/n, "ms")
	r.add("allocs_per_op", float64(w.mallocs)/n, "count")
	r.add("rss_peak_mb", float64(getUsage().maxRSSK)/1024, "MB")
	r.add("sim_kcycles_per_s", float64(cycles)/1e3/secs, "kcycles/s")
	return nil
}
