package serve

import (
	"context"
	"fmt"

	"orderlight/internal/config"
	"orderlight/internal/experiments"
	"orderlight/internal/kernel"
	"orderlight/internal/rcache"
	"orderlight/internal/runner"
)

// Service is the public face of the simulator-as-a-service: submit a
// job, observe it, collect its result. Two implementations exist — the
// production Local wrapping the runner engine, and the injectable Fake
// for transport and client tests — plus the HTTP Client, which speaks
// to a remote Local through the daemon.
type Service interface {
	// Submit validates and admits a job. It returns as soon as the job
	// is queued; admission failures (full queue, tenant quota, drain)
	// and validation failures are synchronous.
	Submit(ctx context.Context, req JobRequest) (JobID, error)

	// Status reports the job's current state.
	Status(ctx context.Context, id JobID) (JobStatus, error)

	// Result returns a terminal job's output. A running or queued job
	// gets ErrNotFinished; a failed or canceled job gets its error.
	Result(ctx context.Context, id JobID) (*JobResult, error)

	// Cancel requests cooperative cancellation. Canceling a queued job
	// is immediate; a running job stops at its next cell boundary.
	// Cancel of a terminal job is a no-op.
	Cancel(ctx context.Context, id JobID) error

	// Watch streams the job's lifecycle: an initial state snapshot,
	// progress (and optionally trace) events while it runs, and a final
	// terminal state event, after which the channel closes. Slow
	// consumers lose intermediate events, never the terminal one, as
	// long as they keep draining the channel.
	Watch(ctx context.Context, id JobID) (<-chan WatchEvent, error)
}

// DefaultBytes is the per-channel footprint of single-cell jobs that
// do not specify one.
const DefaultBytes = 128 << 10

// Execute runs one validated request to completion on the calling
// goroutine. It is the single execution path shared by the library
// facade, the CLIs and the daemon: everything builds the same runner
// engine from the same options, which is why a result obtained over
// HTTP is byte-identical to one computed in process.
func Execute(ctx context.Context, req *JobRequest) (*JobResult, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	cfg := config.Default()
	if req.Config != nil {
		cfg = *req.Config
	}
	o := &req.Opts
	cache := o.Cache
	if cache == nil && o.CacheDir != "" {
		var err error
		if cache, err = rcache.OpenWith(rcache.Config{Dir: o.CacheDir, FS: o.FS}); err != nil {
			return nil, fmt.Errorf("serve: open result cache: %w", err)
		}
	}
	// The engine is built per job, so its kernel cache hits only when
	// one job builds a cell image twice: a multi-cell grid, the fault
	// oracle's pristine rebuild, or a retried cell. A plain single-cell
	// job builds once and would pay a full image clone for the miss, so
	// it runs without the cache.
	eng := runner.New(runner.Options{
		Parallelism:        o.Parallelism,
		Progress:           o.Progress,
		DisableKernelCache: o.NoKernelCache || (!req.MultiCell() && !o.Fault.Active() && o.Retries == 0),
		DenseEngine:        o.Engine == "dense",
		TraceSink:          o.Sink,
		Sampler:            o.Sampler,
		Manifest:           o.Manifest,
		CheckpointDir:      o.CheckpointDir,
		Resume:             o.Resume,
		CellRetries:        o.Retries,
		CellTimeout:        o.CellTimeout,
		ResultCache:        cache,
		FS:                 o.FS,
	})
	sc := experiments.Scale{BytesPerChannel: o.BytesPerChannel}

	switch req.Kind {
	case KindKernel, KindSpec:
		spec, err := singleSpec(req)
		if err != nil {
			return nil, err
		}
		bytes := req.Bytes
		if bytes <= 0 {
			bytes = DefaultBytes
		}
		cells := []runner.Cell{{Key: spec.Name, Cfg: cfg, Spec: spec, Bytes: bytes, Fault: o.Fault}}
		res, err := eng.Run(ctx, cells)
		if err != nil {
			return nil, err
		}
		r := res[0]
		return &JobResult{
			Run: r.Run, Kernel: r.Kernel,
			HostLatency: r.HostLatency, HostServed: r.HostServed,
			Verdict: r.Fault, Manifest: r.Manifest,
		}, nil
	case KindExperiment:
		t, err := experiments.RunEngine(ctx, eng, req.Experiment, cfg, sc)
		if err != nil {
			return nil, err
		}
		return &JobResult{Tables: []*experiments.Table{t}}, nil
	case KindSweep:
		tables, err := experiments.RunAllEngine(ctx, eng, cfg, sc)
		if err != nil {
			return nil, err
		}
		return &JobResult{Tables: tables}, nil
	case KindFaultCampaign:
		t, sum, err := experiments.FaultCampaignEngine(ctx, eng, cfg, sc)
		if err != nil {
			return nil, err
		}
		return &JobResult{Tables: []*experiments.Table{t}, Summary: &sum}, nil
	default:
		// Validate already rejected unknown kinds; this is unreachable.
		return nil, fmt.Errorf("serve: unhandled job kind %q", req.Kind)
	}
}

// singleSpec resolves the kernel spec a single-cell request names or
// carries.
func singleSpec(req *JobRequest) (kernel.Spec, error) {
	if req.Kind == KindKernel {
		return kernel.ByName(req.Kernel)
	}
	return *req.Spec, nil
}
