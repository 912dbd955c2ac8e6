package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"orderlight/internal/chaos"
	"orderlight/internal/config"
	"orderlight/internal/experiments"
	"orderlight/internal/olerrors"
	"orderlight/internal/rcache"
	"orderlight/internal/runner"
)

// This file is the serve side of the distributed sweep fabric. The
// coordinator (a fabric-enabled Local) posts multi-cell jobs on a
// runner.Board and exposes it over two endpoints:
//
//	POST /v1/work/lease     worker polls for a cell range
//	POST /v1/work/complete  worker reports a range's outcomes
//
// Workers never receive cells — they receive the job's serialized
// request and re-derive the identical cell list from it (enumeration
// is deterministic), so the wire carries kilobytes, not kernel
// images. The coordinator reassembles outcomes in declaration order,
// which keeps a distributed run byte-identical to a local one.

// WorkLeaseRequest is a worker's lease poll.
type WorkLeaseRequest struct {
	// Worker names the polling worker; used for lease bookkeeping and
	// logs, not authorization.
	Worker string `json:"worker"`
}

// WorkCompletion reports one finished lease.
type WorkCompletion struct {
	Job      string               `json:"job"`
	Lease    string               `json:"lease"`
	Worker   string               `json:"worker,omitempty"`
	Outcomes []runner.CellOutcome `json:"outcomes"`
}

// WorkHeartbeat is a worker's mid-lease liveness proof.
type WorkHeartbeat struct {
	Job    string `json:"job"`
	Lease  string `json:"lease"`
	Worker string `json:"worker,omitempty"`
}

// WorkHeartbeatReply is the coordinator's answer: Held false means the
// lease expired and was (or will be) re-issued — the worker may finish
// anyway (completions are first-fill-wins) or abandon the range.
type WorkHeartbeatReply struct {
	Held bool `json:"held"`
}

// WorkProvider is the coordinator surface a worker drives. Local
// implements it when fabric is enabled; Client implements it
// unconditionally (the daemon answers invalid-spec when it has no
// coordinator), so RunWorker runs identically in process and over
// HTTP.
type WorkProvider interface {
	// LeaseWork grants the next pending cell range, or (nil, nil) when
	// no work is available right now — poll again.
	LeaseWork(ctx context.Context, worker string) (*runner.Lease, error)

	// CompleteWork records a lease's outcomes. Completing an expired
	// or re-issued lease is accepted (results are deterministic);
	// completing a forgotten job errors with ErrUnknownJob.
	CompleteWork(ctx context.Context, comp WorkCompletion) error

	// HeartbeatWork extends a held lease and feeds the coordinator's
	// worker-liveness view. false means the lease is no longer held.
	HeartbeatWork(ctx context.Context, hb WorkHeartbeat) (bool, error)
}

// fabricPlan is a multi-cell request decomposed for the fabric: the
// full deterministic cell list (both sides derive it) and the
// coordinator's assembly of declaration-ordered results into the
// job's output.
type fabricPlan struct {
	cells    []runner.Cell
	assemble func([]runner.Result) (*JobResult, error)
}

// planFabric decomposes a validated multi-cell request. It mirrors
// Execute's per-kind dispatch exactly — same Cells, same Assemble,
// same ordering — which is what makes fabric output byte-identical to
// the local path.
func planFabric(req *JobRequest) (*fabricPlan, error) {
	cfg := config.Default()
	if req.Config != nil {
		cfg = *req.Config
	}
	sc := experiments.Scale{BytesPerChannel: req.Opts.BytesPerChannel}
	switch req.Kind {
	case KindExperiment:
		id := req.Experiment
		cells, err := experiments.Cells(id, cfg, sc)
		if err != nil {
			return nil, err
		}
		return &fabricPlan{cells: cells, assemble: func(res []runner.Result) (*JobResult, error) {
			t, err := experiments.Assemble(id, cfg, sc, res)
			if err != nil {
				return nil, err
			}
			return &JobResult{Tables: []*experiments.Table{t}}, nil
		}}, nil
	case KindSweep:
		ids := experiments.IDs()
		var all []runner.Cell
		spans := make([][2]int, len(ids))
		for i, id := range ids {
			cells, err := experiments.Cells(id, cfg, sc)
			if err != nil {
				return nil, err
			}
			spans[i] = [2]int{len(all), len(all) + len(cells)}
			all = append(all, cells...)
		}
		return &fabricPlan{cells: all, assemble: func(res []runner.Result) (*JobResult, error) {
			out := make([]*experiments.Table, len(ids))
			for i, id := range ids {
				t, err := experiments.Assemble(id, cfg, sc, res[spans[i][0]:spans[i][1]])
				if err != nil {
					return nil, err
				}
				out[i] = t
			}
			return &JobResult{Tables: out}, nil
		}}, nil
	case KindFaultCampaign:
		cells, err := experiments.Cells("fault-campaign", cfg, sc)
		if err != nil {
			return nil, err
		}
		return &fabricPlan{cells: cells, assemble: func(res []runner.Result) (*JobResult, error) {
			t, err := experiments.Assemble("fault-campaign", cfg, sc, res)
			if err != nil {
				return nil, err
			}
			sum := experiments.CampaignSummary(cfg, cells, res)
			return &JobResult{Tables: []*experiments.Table{t}, Summary: &sum}, nil
		}}, nil
	default:
		return nil, fmt.Errorf("serve: %w: job kind %q cannot run on the fabric", olerrors.ErrInvalidSpec, req.Kind)
	}
}

// WorkerOptions tunes one fabric worker.
type WorkerOptions struct {
	// Name identifies the worker in leases and logs.
	Name string

	// Poll is the idle poll interval; <= 0 means 250ms.
	Poll time.Duration

	// CheckpointDir, when set, makes the worker preemptible: every
	// finished cell is journaled there, and a worker restarted on the
	// same directory replays finished cells instead of re-simulating
	// them. The journal is keyed by full cell identity, so one
	// directory safely serves leases of many jobs.
	CheckpointDir string

	// Parallelism overrides the leased job's cell worker pool on this
	// worker; <= 0 keeps the job's own setting.
	Parallelism int

	// FS is the filesystem this worker's journal and result cache
	// write through; nil means the real one (the chaos
	// harness injects its sick disk here).
	FS chaos.FS

	// Logf receives worker progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// pollJitter spreads worker polls over [poll/2, 3*poll/2): cadence is
// derived deterministically from the worker's name and the poll index
// (same splitmix-style mix the runner's retry backoff uses), so a
// fleet of workers started together decorrelates without
// nondeterministic randomness — and a given worker's poll pattern is
// exactly reproducible.
func pollJitter(name string, n uint64, poll time.Duration) time.Duration {
	var seed uint64
	for _, b := range []byte(name) {
		seed = seed*131 + uint64(b)
	}
	seed += n * 0x9e37_79b9_7f4a_7c15
	seed ^= seed >> 33
	seed *= 0xff51_afd7_ed55_8ccd
	seed ^= seed >> 33
	return poll/2 + time.Duration(seed%uint64(poll)+1)
}

// RunWorker drives one fabric worker until ctx is canceled: poll for
// a lease, re-derive the cells, execute the range, report the
// outcomes, repeat. Transient coordinator errors (daemon restarting,
// job forgotten) are logged and retried — the worker is disposable by
// design; a killed worker's lease simply expires and its range is
// re-issued. Returns nil on cancellation.
func RunWorker(ctx context.Context, wp WorkProvider, opts WorkerOptions) error {
	poll := opts.Poll
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var polls uint64
	for {
		if ctx.Err() != nil {
			return nil
		}
		lease, err := wp.LeaseWork(ctx, opts.Name)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			logf("worker %s: lease: %v", opts.Name, err)
			polls++
			if !sleepCtx(ctx, pollJitter(opts.Name, polls, poll)) {
				return nil
			}
			continue
		}
		if lease == nil {
			polls++
			if !sleepCtx(ctx, pollJitter(opts.Name, polls, poll)) {
				return nil
			}
			continue
		}
		logf("worker %s: leased %s %s cells [%d,%d) of %d", opts.Name, lease.Job, lease.ID, lease.Lo, lease.Hi, lease.Total)
		hbStop := startHeartbeats(ctx, wp, lease, opts.Name, logf)
		outs := executeLeasedRange(ctx, lease, opts)
		hbStop()
		if ctx.Err() != nil {
			// Preempted mid-lease: report nothing. The lease expires and
			// the range is re-issued; our journal keeps the cells that
			// finished.
			return nil
		}
		if err := wp.CompleteWork(ctx, WorkCompletion{Job: lease.Job, Lease: lease.ID, Worker: opts.Name, Outcomes: outs}); err != nil {
			// A forgotten job (canceled, collected) or a coordinator
			// hiccup; either way the work is durable in our journal and
			// re-deliverable, so keep serving.
			logf("worker %s: complete %s %s: %v", opts.Name, lease.Job, lease.ID, err)
		}
	}
}

// startHeartbeats beats the coordinator at the lease's advertised
// cadence while the worker executes its range, and returns a stop
// function. Heartbeat failures are logged and tolerated — the worker's
// recourse is the same either way: finish the range and complete it
// (first-fill-wins makes a late completion harmless). A lease with no
// cadence hint gets no heartbeats, reproducing pure-TTL behavior.
func startHeartbeats(ctx context.Context, wp WorkProvider, lease *runner.Lease, name string, logf func(string, ...any)) func() {
	if lease.HeartbeatMillis <= 0 {
		return func() {}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(time.Duration(lease.HeartbeatMillis) * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				held, err := wp.HeartbeatWork(ctx, WorkHeartbeat{Job: lease.Job, Lease: lease.ID, Worker: name})
				if err != nil {
					logf("worker %s: heartbeat %s %s: %v", name, lease.Job, lease.ID, err)
				} else if !held {
					logf("worker %s: lease %s %s no longer held; finishing anyway", name, lease.Job, lease.ID)
					return
				}
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

// executeLeasedRange rebuilds the leased job's cell list and runs the
// granted range. Structural failures (undecodable request, unknown
// experiment) become a single Err outcome, which fails the job at the
// coordinator with the cause attached.
func executeLeasedRange(ctx context.Context, lease *runner.Lease, opts WorkerOptions) []runner.CellOutcome {
	fail := func(err error) []runner.CellOutcome {
		return []runner.CellOutcome{{Index: lease.Lo, Err: err.Error()}}
	}
	var req JobRequest
	if err := json.Unmarshal(lease.Request, &req); err != nil {
		return fail(fmt.Errorf("decode leased request: %v", err))
	}
	plan, err := planFabric(&req)
	if err != nil {
		return fail(err)
	}
	eng, err := workerEngine(&req, opts)
	if err != nil {
		return fail(err)
	}
	return eng.ExecuteLease(ctx, plan.cells, lease.Lo, lease.Hi)
}

// workerEngine builds the engine for one lease from the leased job's
// own options — engine flavor, retries, footprint all travel with the
// request, so every worker simulates the job the same way — plus this
// worker's durability and parallelism settings.
func workerEngine(req *JobRequest, opts WorkerOptions) (*runner.Engine, error) {
	o := &req.Opts
	var cache *rcache.Cache
	if o.CacheDir != "" {
		var err error
		if cache, err = rcache.OpenWith(rcache.Config{Dir: o.CacheDir, FS: opts.FS}); err != nil {
			return nil, fmt.Errorf("open result cache: %v", err)
		}
	}
	par := o.Parallelism
	if opts.Parallelism > 0 {
		par = opts.Parallelism
	}
	return runner.New(runner.Options{
		Parallelism:        par,
		DisableKernelCache: o.NoKernelCache,
		DenseEngine:        o.Dense || o.Engine == "dense",
		CellRetries:        o.Retries,
		CellTimeout:        o.CellTimeout,
		CheckpointDir:      opts.CheckpointDir,
		Resume:             opts.CheckpointDir != "",
		ResultCache:        cache,
		FS:                 opts.FS,
	}), nil
}

// sleepCtx sleeps d or until ctx cancels; false means canceled.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
