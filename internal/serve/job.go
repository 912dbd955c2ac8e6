package serve

import (
	"errors"
	"fmt"
	"time"

	"orderlight/internal/chaos"
	"orderlight/internal/config"
	"orderlight/internal/experiments"
	"orderlight/internal/fault"
	"orderlight/internal/kernel"
	"orderlight/internal/obs"
	"orderlight/internal/olerrors"
	"orderlight/internal/rcache"
	"orderlight/internal/stats"
)

// JobID identifies one submitted job for the rest of its life. IDs are
// assigned by the Service and are opaque to callers.
type JobID string

// JobState is a job's position in its lifecycle.
type JobState string

// The five job states. A job moves queued -> running -> one of the
// three terminal states; Cancel can short-circuit straight from queued
// to canceled.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final: the job will never run
// again and its Result (or error) is stable.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobKind selects what a job simulates.
type JobKind string

// The job kinds. Kernel and Spec jobs run exactly one simulation cell
// and accept the single-cell options (trace sink, sampler, fault
// plan); Experiment, Sweep and FaultCampaign jobs fan out over
// cell grids and reject them.
const (
	KindKernel        JobKind = "kernel"         // one named Table 2 kernel
	KindSpec          JobKind = "spec"           // one user-defined kernel spec
	KindExperiment    JobKind = "experiment"     // one paper table/figure
	KindSweep         JobKind = "sweep"          // every experiment
	KindFaultCampaign JobKind = "fault-campaign" // ordering-fault injection grid
)

// Service-level sentinel errors. They classify admission and lookup
// failures the same way olerrors classifies simulation failures:
// wrapped with %w on the way up, matched with errors.Is at the edges
// (the HTTP layer maps them to status codes; clients get them back via
// JobError).
var (
	// ErrQueueFull reports a Submit refused because the bounded FIFO
	// queue is at capacity. Retry after a delay.
	ErrQueueFull = errors.New("job queue full")

	// ErrQuotaExceeded reports a Submit refused because the tenant
	// already has its maximum jobs queued or running.
	ErrQuotaExceeded = errors.New("per-tenant job quota exceeded")

	// ErrDraining reports a Submit refused because the service is
	// shutting down and no longer admits work.
	ErrDraining = errors.New("service is draining")

	// ErrUnknownJob reports an ID no job in the store carries.
	ErrUnknownJob = errors.New("unknown job")

	// ErrNotFinished reports a Result request for a job that has not
	// reached a terminal state yet.
	ErrNotFinished = errors.New("job not finished")
)

// wireSentinels maps wire codes to sentinel errors in classification
// priority order: service-level conditions first (they are the most
// actionable), then the runner taxonomy, then the broad
// classifications. WireError picks the first match, so a CellError
// wrapping ErrCellTimeout codes as "cell-timeout", not "canceled".
var wireSentinels = []struct {
	code string
	err  error
}{
	{"queue-full", ErrQueueFull},
	{"quota-exceeded", ErrQuotaExceeded},
	{"draining", ErrDraining},
	{"unknown-job", ErrUnknownJob},
	{"not-finished", ErrNotFinished},
	{"cell-timeout", olerrors.ErrCellTimeout},
	{"cell-panic", olerrors.ErrCellPanic},
	{"canceled", olerrors.ErrCanceled},
	{"unknown-kernel", olerrors.ErrUnknownKernel},
	{"unknown-experiment", olerrors.ErrUnknownExperiment},
	{"invalid-spec", olerrors.ErrInvalidSpec},
}

// JobError is the wire form of a job failure: a sentinel code plus the
// full error text. It is shared between the library facade and the
// HTTP boundary, and it unwraps to the sentinel it encodes, so
// errors.Is(err, olerrors.ErrUnknownKernel) holds on both sides of the
// wire.
type JobError struct {
	// Code names the first sentinel the original error matched, e.g.
	// "unknown-kernel" or "queue-full"; empty when none matched.
	Code string `json:"code,omitempty"`
	// Message is the original error's full text.
	Message string `json:"message"`
}

// Error implements error.
func (e *JobError) Error() string { return e.Message }

// Unwrap maps the code back to its sentinel, re-arming errors.Is after
// a trip through JSON. An unknown or empty code unwraps to nil.
func (e *JobError) Unwrap() error {
	for _, s := range wireSentinels {
		if s.code == e.Code {
			return s.err
		}
	}
	return nil
}

// WireError classifies err into its wire form; nil maps to nil.
func WireError(err error) *JobError {
	if err == nil {
		return nil
	}
	je := &JobError{Message: err.Error()}
	for _, s := range wireSentinels {
		if errors.Is(err, s.err) {
			je.Code = s.code
			break
		}
	}
	return je
}

// RunOpts is the validated bag of run options every entry point builds
// once per call. The JSON-tagged fields travel over the wire; the
// function and interface fields are in-process only (a daemon caller
// cannot pass a Go callback through HTTP) and are dropped on marshal.
type RunOpts struct {
	// Parallelism bounds the job's cell worker pool; <= 0 means one
	// worker per CPU.
	Parallelism int `json:"parallelism,omitempty"`
	// Engine selects the simulation engine by name: "skip" (default)
	// or "dense", the naive tick engine kept as a parity reference
	// (byte-identical results). Unknown values are rejected at
	// admission.
	Engine string `json:"engine,omitempty"`
	// NoKernelCache disables sharing built kernel images across cells.
	NoKernelCache bool `json:"no_kernel_cache,omitempty"`
	// BytesPerChannel overrides the experiment data footprint (the
	// facade's WithScale); 0 means the experiment default.
	BytesPerChannel int64 `json:"bytes_per_channel,omitempty"`
	// Manifest attaches provenance manifests to every simulated cell.
	Manifest bool `json:"manifest,omitempty"`
	// Fault arms a seeded ordering-fault plan (single-cell jobs only).
	Fault fault.Spec `json:"fault,omitempty"`
	// CheckpointDir/Resume are the crash-safe options: a journal of
	// finished cells, replayed on resume; see the facade's
	// WithCheckpointDir.
	CheckpointDir string `json:"checkpoint_dir,omitempty"`
	Resume        bool   `json:"resume,omitempty"`
	// Retries and CellTimeout drive the per-cell retry/watchdog loop.
	// CellTimeout marshals as nanoseconds.
	Retries     int           `json:"retries,omitempty"`
	CellTimeout time.Duration `json:"cell_timeout_ns,omitempty"`
	// StreamTrace relays the machine's event feed to Watch subscribers
	// as "trace" events (single-cell jobs only).
	StreamTrace bool `json:"stream_trace,omitempty"`
	// CacheDir points the run at an on-disk content-addressed result
	// cache: completed unfaulted cells are memoized and identical cells
	// in later runs are served without simulating (the facade's
	// WithResultCache / the CLIs' -cache-dir). Cached and recomputed
	// results are byte-identical.
	CacheDir string `json:"cache_dir,omitempty"`

	// In-process-only fields; see the facade options of the same names.
	Progress func(done, total int) `json:"-"`
	Sink     obs.Sink              `json:"-"`
	Sampler  *stats.Sampler        `json:"-"`
	// Cache is an already-open result cache (the daemon attaches its
	// shared one); takes precedence over CacheDir.
	Cache *rcache.Cache `json:"-"`
	// FS is the filesystem the run's durability layers (the progress
	// journal, result-cache blobs) write through; nil means the real
	// one. The chaos harness injects its seeded sick disk here. Never
	// crosses the wire — a daemon's disks are its own.
	FS chaos.FS `json:"-"`
}

// Validate reports structurally invalid option combinations. This is
// the one place option invariants live; every entry point — facade,
// CLI and daemon — funnels through it.
func (o *RunOpts) Validate() error {
	switch {
	case o.Resume && o.CheckpointDir == "":
		return fmt.Errorf("serve: %w: WithResume (resume) needs a checkpoint directory (WithCheckpointDir)", olerrors.ErrInvalidSpec)
	case o.Retries < 0:
		return fmt.Errorf("serve: %w: retry count %d is negative", olerrors.ErrInvalidSpec, o.Retries)
	case o.CellTimeout < 0:
		return fmt.Errorf("serve: %w: cell timeout %v is negative", olerrors.ErrInvalidSpec, o.CellTimeout)
	case o.BytesPerChannel < 0:
		return fmt.Errorf("serve: %w: bytes per channel %d is negative", olerrors.ErrInvalidSpec, o.BytesPerChannel)
	}
	switch o.Engine {
	case "", "skip", "dense":
	default:
		return fmt.Errorf("serve: %w: unknown engine %q (want skip|dense)", olerrors.ErrInvalidSpec, o.Engine)
	}
	if o.Fault.Active() {
		if err := o.Fault.Validate(); err != nil {
			return fmt.Errorf("serve: %w: %v", olerrors.ErrInvalidSpec, err)
		}
	}
	return nil
}

// JobRequest describes one job. The zero value is invalid; Kind must
// be set and the kind-specific field filled in.
type JobRequest struct {
	Kind JobKind `json:"kind"`

	// Tenant is the quota key for admission control; empty means the
	// "default" tenant.
	Tenant string `json:"tenant,omitempty"`

	// IdempotencyKey, when non-empty, makes Submit idempotent: a
	// submission whose key matches a queued, running or done job hands
	// back that job's ID instead of enqueueing a duplicate. Retry-armed
	// clients stamp it automatically (a client that lost a response
	// cannot tell whether the daemon lost the request), deriving it
	// from the request content so identical retries collide and
	// different jobs never do.
	IdempotencyKey string `json:"idempotency_key,omitempty"`

	// Kernel names a Table 2 workload (KindKernel).
	Kernel string `json:"kernel,omitempty"`

	// Spec is a user-defined kernel spec (KindSpec).
	Spec *kernel.Spec `json:"spec,omitempty"`

	// Experiment is a table/figure ID (KindExperiment).
	Experiment string `json:"experiment,omitempty"`

	// Bytes is the per-channel data footprint for single-cell jobs;
	// <= 0 means 128 KiB.
	Bytes int64 `json:"bytes,omitempty"`

	// Config is the full simulator configuration; nil means the Table 1
	// default.
	Config *config.Config `json:"config,omitempty"`

	// Opts tunes execution without changing simulation results (except
	// Fault, which is part of the job's identity).
	Opts RunOpts `json:"opts,omitempty"`
}

// MultiCell reports whether the request fans out over a cell grid, in
// which case the single-cell options are rejected.
func (r *JobRequest) MultiCell() bool {
	return r.Kind != KindKernel && r.Kind != KindSpec
}

// Validate is the single admission gate for every caller: it checks
// the option bag, the kind-specific payload, and — in one place
// instead of per entry point — the single-cell-only option guards.
func (r *JobRequest) Validate() error {
	if err := r.Opts.Validate(); err != nil {
		return err
	}
	switch r.Kind {
	case KindKernel:
		if _, err := kernel.ByName(r.Kernel); err != nil {
			return err
		}
	case KindSpec:
		if r.Spec == nil {
			return fmt.Errorf("serve: %w: spec job carries no kernel spec", olerrors.ErrInvalidSpec)
		}
		if err := r.Spec.Validate(); err != nil {
			return err
		}
	case KindExperiment:
		if !experiments.Known(r.Experiment) {
			return fmt.Errorf("serve: %w %q (known: %v)", olerrors.ErrUnknownExperiment, r.Experiment, experiments.IDs())
		}
	case KindSweep, KindFaultCampaign:
		// No payload beyond config and options.
	default:
		return fmt.Errorf("serve: %w: unknown job kind %q (want kernel|spec|experiment|sweep|fault-campaign)", olerrors.ErrInvalidSpec, r.Kind)
	}
	if r.MultiCell() {
		switch {
		case r.Opts.Sink != nil || r.Opts.StreamTrace:
			return fmt.Errorf("serve: %w: WithTraceSink (stream_trace) attaches to exactly one run; %s jobs fan out many cells", olerrors.ErrInvalidSpec, r.Kind)
		case r.Opts.Sampler != nil:
			return fmt.Errorf("serve: %w: WithSampler attaches to exactly one run; %s jobs fan out many cells", olerrors.ErrInvalidSpec, r.Kind)
		case r.Opts.Fault.Active():
			return fmt.Errorf("serve: %w: WithFaultPlan applies to exactly one run; use RunFaultedKernelContext or a fault-campaign job", olerrors.ErrInvalidSpec)
		}
	}
	return nil
}

// JobStatus is a job's observable state, shared between the library
// facade and the wire format. Timestamps are wall-clock and therefore
// run-dependent; results stay deterministic.
type JobStatus struct {
	ID     JobID    `json:"id"`
	Kind   JobKind  `json:"kind"`
	State  JobState `json:"state"`
	Tenant string   `json:"tenant,omitempty"`

	// Done/Total mirror the runner's progress callback.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`

	// Error classifies a failed or canceled job.
	Error *JobError `json:"error,omitempty"`

	// Resumable reports that the job has a checkpoint directory, so a
	// preempted or failed run can continue from its journal by
	// resubmitting the identical request.
	Resumable bool `json:"resumable,omitempty"`

	SubmittedAt time.Time `json:"submitted_at,omitempty"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`
}

// JobResult is everything a completed job produced. Exactly which
// fields are set depends on the job kind.
type JobResult struct {
	// Run and friends are the single-cell outputs (KindKernel,
	// KindSpec).
	Run         *stats.Run     `json:"run,omitempty"`
	HostLatency float64        `json:"host_latency,omitempty"`
	HostServed  int64          `json:"host_served,omitempty"`
	Verdict     *fault.Verdict `json:"verdict,omitempty"`
	Manifest    *obs.Manifest  `json:"manifest,omitempty"`

	// Tables are the rendered outputs of experiment, sweep and
	// fault-campaign jobs (one per experiment, in declaration order).
	Tables []*experiments.Table `json:"tables,omitempty"`

	// Summary is the fault campaign's verdict aggregation.
	Summary *experiments.FaultSummary `json:"summary,omitempty"`

	// Kernel is the built kernel image of a single-cell job. It is an
	// in-process convenience (RunSpecContext returns it) and far too
	// big for the wire.
	Kernel *kernel.Kernel `json:"-"`
}

// WatchEvent is one item in a job's Watch stream.
type WatchEvent struct {
	// Type is "state" (State set; terminal states carry Error on
	// failure), "progress" (Done/Total set) or "trace" (Trace set).
	Type  string     `json:"type"`
	State JobState   `json:"state,omitempty"`
	Done  int        `json:"done,omitempty"`
	Total int        `json:"total,omitempty"`
	Trace *obs.Event `json:"trace,omitempty"`
	Error *JobError  `json:"error,omitempty"`
}

// Terminal reports whether the event announces a terminal state — the
// stream's last event before close.
func (e WatchEvent) Terminal() bool {
	return e.Type == "state" && e.State.Terminal()
}
