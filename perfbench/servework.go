package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"orderlight/internal/serve"
	"orderlight/internal/stats"
)

const (
	// serveClients closed-loop clients drive serve-mix, one per vCPU of
	// the 2-vCPU machine the baseline was recorded on; the daemon runs
	// as many job workers.
	serveClients = 2
	serveWorkers = 2
	// primedReqs requests are completed during set-up so repeats have
	// targets from a client's first op. One full round of the stream:
	// every (kernel, primitive) pair once, so set-up does the same
	// work for every seed.
	primedReqs = 24
	// serveWarmOps repeats per client warm the HTTP path before timing.
	serveWarmOps = 16
	// saltServe keeps the client streams independent of the others.
	saltServe = 0x5e
)

// startDaemon starts an in-process serve.Local with a fresh on-disk
// result cache behind serve.NewHandler on a loopback port, and a client
// that reaches it over HTTP.
func startDaemon() (*daemon, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "serve-cache-")
	if err != nil {
		return nil, err
	}
	local := serve.NewLocal(serve.LocalConfig{Workers: serveWorkers, CacheDir: dir})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		local.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	srv := &http.Server{Handler: serve.NewHandler(local)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	tr := &http.Transport{MaxIdleConnsPerHost: 4 * serveClients}
	d := &daemon{local: local, client: serve.NewClient("http://"+ln.Addr().String(), &http.Client{Transport: tr})}
	d.stop = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		tr.CloseIdleConnections()
		if cerr := local.Close(); err == nil {
			err = cerr
		}
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
		return err
	}
	return d, nil
}

// primeDaemon starts a daemon and completes the primed requests on it
// (two at a time, one per job worker), then warms each client's HTTP
// path with repeats.
func primeDaemon(ctx context.Context, plan *servePlan) (*daemon, error) {
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	err = parallel(serveClients, primedReqs, func(i int) error {
		_, err := facadeJob(ctx, d, plan.request(i))
		return err
	})
	if err == nil {
		err = parallel(serveClients, serveClients*serveWarmOps, func(i int) error {
			_, err := facadeJob(ctx, d, plan.request(i%primedReqs))
			return err
		})
	}
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("prime daemon: %w", err)
	}
	runtime.GC() // start the window from a settled heap
	return d, nil
}

// parallel runs f(0..n-1) on k goroutines and returns the first error.
func parallel(k, n int, f func(i int) error) error {
	var (
		mu    sync.Mutex
		next  int
		first error
		wg    sync.WaitGroup
	)
	for g := 0; g < k; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := i >= n || first != nil
				mu.Unlock()
				if stop {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// serveRecord is one timed serve-mix job.
type serveRecord struct {
	opRecord
	op serveOp
}

// runServeMix is serve-mix: two closed-loop clients over loopback HTTP
// to an in-process daemon (two job workers, job parallelism 1, a fresh
// result cache). Three of every four jobs repeat an already completed
// request (admission, HTTP, SSE and the whole-job memo); the fourth is
// new (the simulator, and rcache puts beside the reads).
func runServeMix(ctx context.Context, o options) (*result, error) {
	plan := newServePlan(o.seed, serveClients, primedReqs)
	var d *daemon
	reps := setupReps
	if o.trace {
		reps = 1
	}
	setupS, err := medianSetup(reps, func(last bool) error {
		nd, err := primeDaemon(ctx, plan)
		if err != nil {
			return err
		}
		if !last {
			return nd.stop()
		}
		d = nd
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer d.stop()

	ld := &layerData{}
	var main *recorder
	if o.trace {
		main = newRecorder()
		ld.tracedRoot = repeatRoot
	}
	h0, err := d.client.Healthz(ctx)
	if err != nil {
		return nil, err
	}
	// Each client completes at least its share of the ops the tail
	// percentile needs (and of the digest prefix).
	minOps := digestOps / serveClients
	if !o.trace {
		minOps = max(minOps, (minTailOps(tailPercentile[o.workload])+serveClients-1)/serveClients)
	}
	perClient := make([][]serveRecord, serveClients)
	w := measure(func() {
		deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
		var wg sync.WaitGroup
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				perClient[c] = serveLoop(ctx, d, plan.client(o.seed^saltServe, c), plan, deadline, minOps, main, ld)
			}(c)
		}
		wg.Wait()
	})
	h1, err := d.client.Healthz(ctx)
	if err != nil {
		return nil, err
	}

	var all []serveRecord
	for _, recs := range perClient {
		all = append(all, recs...)
	}
	if err := checkServe(ctx, plan, all); err != nil {
		return nil, err
	}
	ops := make([]opRecord, len(all))
	for i, rec := range all {
		ops[i] = rec.opRecord
	}
	// The digest covers each client's leading ops, client by client:
	// a pure function of the seed however the clients interleaved.
	var head []opRecord
	for _, recs := range perClient {
		for _, rec := range recs[:min(digestOps/serveClients, len(recs))] {
			head = append(head, rec.opRecord)
		}
	}
	printClasses(all)

	jobs := int64(len(all))
	ld.memoHits += h1.CacheHits - h0.CacheHits
	ld.jobs += jobs
	ld.rcHits += h1.CacheHits - h0.CacheHits
	ld.rcLookups += h1.CacheHits - h0.CacheHits + h1.CacheMisses - h0.CacheMisses

	r := &result{}
	if !o.trace {
		tally(r, ops)
		printDigest(o, head)
		if err := endToEnd(r, setupS, w, ops, tailPercentile[o.workload]); err != nil {
			return nil, err
		}
		r.Correct = r.Failed == 0
		return r, nil
	}

	ld.main = main.snapshot()
	probe := newRecorder()
	var cells []cellSpec
	for i := 0; i < probeOps; i++ {
		cells = append(cells, plan.request(i))
	}
	if err := coldProbe(ctx, probe, ld, cells, coldProbeBase); err != nil {
		return nil, err
	}
	if err := warmProbe(ctx, probe, ld, cells, warmProbeBase); err != nil {
		return nil, err
	}
	ld.probe = probe.snapshot()
	res, err := finishTraced(o, ld, head)
	if err != nil {
		return nil, err
	}
	// finishTraced tallied the digest prefix only; count every job.
	res.Attempted, res.Failed = 0, 0
	tally(res, ops)
	res.Correct = res.Failed == 0
	return res, nil
}

// serveLoop is one closed-loop client: submit, await the result, then
// the next op, until the deadline has passed and minOps are done. In a
// traced run every other block of ops is taken apart into its HTTP
// calls (with a healthz round trip after each op) and the rest run
// untraced through serve.Await. Tracing overhead compares the two
// halves' repeat jobs, which all do the same work.
func serveLoop(ctx context.Context, d *daemon, cl *serveClient, plan *servePlan, deadline time.Time, minOps int, main *recorder, ld *layerData) []serveRecord {
	var recs []serveRecord
	for i := 0; len(recs) < minOps || time.Now().Before(deadline); i++ {
		op := cl.next()
		c := plan.request(op.Req)
		traced := main != nil && (i/blockLen)%2 == 0
		opID := cl.id*10_000_000 + i
		t0 := time.Now()
		var res *serve.JobResult
		var err error
		if traced {
			res, err = jobLayers(ctx, main, opID, d, c, op.Repeat)
		} else {
			res, err = facadeJob(ctx, d, c)
		}
		el := time.Since(t0)
		ms := float64(el.Nanoseconds()) / 1e6
		if err != nil {
			ms = math.Inf(1)
		}
		if main != nil {
			if traced {
				if _, herr := healthz(ctx, main, opID, d); herr != nil && err == nil {
					err = herr
				}
			} else if op.Repeat {
				ld.mu.Lock()
				ld.untracedNS += el.Nanoseconds()
				ld.untracedOps++
				ld.mu.Unlock()
			}
		}
		var run *stats.Run
		if res != nil {
			run = res.Run
		}
		recs = append(recs, serveRecord{opRecord: opRecord{cell: c, run: run, err: err, ms: ms}, op: op})
	}
	return recs
}

// checkServe compares every job's result with the in-process result
// (serve.Execute, no cache) for the same request. Each distinct request
// is computed once, two at a time now that the window is over. A
// mismatch marks the job failed.
func checkServe(ctx context.Context, plan *servePlan, recs []serveRecord) error {
	var reqs []int
	seen := make(map[int]bool)
	for _, r := range recs {
		if !seen[r.op.Req] {
			seen[r.op.Req] = true
			reqs = append(reqs, r.op.Req)
		}
	}
	ref := make([]string, len(reqs))
	err := parallel(serveClients, len(reqs), func(i int) error {
		run, err := facadeCell(ctx, plan.request(reqs[i]), nil)
		if err != nil {
			return fmt.Errorf("in-process reference: %w", err)
		}
		ref[i] = runJSON(run)
		return nil
	})
	if err != nil {
		return err
	}
	byReq := make(map[int]string, len(reqs))
	for i, q := range reqs {
		byReq[q] = ref[i]
	}
	for i := range recs {
		r := &recs[i]
		if r.err == nil && runJSON(r.run) != byReq[r.op.Req] {
			r.err = fmt.Errorf("%v: daemon result differs from the in-process result", r.cell)
			r.ms = math.Inf(1)
		}
	}
	return nil
}

// printClasses prints the repeat (memo hit) and new (miss) classes'
// medians beside the overall figures, so a change that helps one class
// and costs the other shows up.
func printClasses(recs []serveRecord) {
	var hit, miss []float64
	for _, r := range recs {
		if r.op.Repeat {
			hit = append(hit, r.ms)
		} else {
			miss = append(miss, r.ms)
		}
	}
	p := func(xs []float64) float64 {
		if len(xs) == 0 {
			return math.NaN()
		}
		v, _ := percentile(sortedCopy(xs), 50)
		return v
	}
	fmt.Printf("classes: repeat_ops=%d repeat_p50_ms=%.4f new_ops=%d new_p50_ms=%.4f\n", len(hit), p(hit), len(miss), p(miss))
}

// serveProbe sends cells through a fresh daemon twice each, the first
// job new and the second a repeat, taken apart into HTTP calls, with a
// healthz round trip after each pair.
func serveProbe(ctx context.Context, rec *recorder, ld *layerData, cells []cellSpec, base int) (err error) {
	d, err := startDaemon()
	if err != nil {
		return err
	}
	defer func() {
		if serr := d.stop(); err == nil {
			err = serr
		}
	}()
	h0, err := d.client.Healthz(ctx)
	if err != nil {
		return err
	}
	for i, c := range cells {
		first, err := jobLayers(ctx, rec, base+2*i, d, c, false)
		if err != nil {
			return fmt.Errorf("serve probe: %w", err)
		}
		again, err := jobLayers(ctx, rec, base+2*i+1, d, c, true)
		if err != nil {
			return fmt.Errorf("serve probe: %w", err)
		}
		if runJSON(first.Run) != runJSON(again.Run) {
			return fmt.Errorf("serve probe: %v: repeat result differs from the first", c)
		}
		if _, err := healthz(ctx, rec, base+2*i, d); err != nil {
			return err
		}
	}
	h1, err := d.client.Healthz(ctx)
	if err != nil {
		return err
	}
	ld.memoHits += h1.CacheHits - h0.CacheHits
	ld.jobs += int64(2 * len(cells))
	return nil
}
