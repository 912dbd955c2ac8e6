// Package orderlight is a from-scratch reproduction of "OrderLight:
// Lightweight Memory-Ordering Primitive for Efficient Fine-Grained PIM
// Computations" (Nag and Balasubramonian, MICRO 2021).
//
// The package is the public facade over the cycle-level simulator in
// internal/: a GPU host issuing fine-grained PIM commands through an
// in-order memory pipe into HBM channels equipped with PIM compute
// units. Three ordering disciplines are available — none (functionally
// incorrect under FR-FCFS reordering), traditional core-centric fences,
// and the paper's memory-centric OrderLight packets — together with the
// full Table 2 workload suite and drivers that regenerate every table
// and figure of the paper's evaluation.
//
// Quick start:
//
//	cfg := orderlight.DefaultConfig()
//	cfg.Run.Primitive = orderlight.PrimitiveOrderLight
//	res, err := orderlight.RunKernel(cfg, "add", 256<<10)
//	fmt.Println(res)
//
// Every entry point has a context-aware variant taking functional
// options. Experiment sweeps fan their cells out across a worker pool
// (one worker per CPU by default) while output stays byte-identical to
// a sequential run:
//
//	tables, err := orderlight.RunAllExperimentsContext(ctx, cfg,
//		orderlight.WithParallelism(4),
//		orderlight.WithProgress(func(done, total int) {
//			fmt.Fprintf(os.Stderr, "\r%d/%d", done, total)
//		}))
//
// Failures are classified by the sentinel errors ErrUnknownKernel,
// ErrUnknownExperiment, ErrInvalidSpec and ErrCanceled; match them
// with errors.Is.
package orderlight

import (
	"context"
	"io"
	"runtime"
	"sync"
	"time"

	"orderlight/internal/config"
	"orderlight/internal/experiments"
	"orderlight/internal/fault"
	"orderlight/internal/gpu"
	"orderlight/internal/isa"
	"orderlight/internal/kernel"
	"orderlight/internal/obs"
	"orderlight/internal/olerrors"
	"orderlight/internal/serve"
	"orderlight/internal/stats"
	"orderlight/internal/trace"
)

// Sentinel errors every failure from this package can be classified
// against with errors.Is. They are re-exports of internal/olerrors, so
// internal packages and public callers match the same values.
var (
	// ErrUnknownKernel reports a workload name outside Table 2.
	ErrUnknownKernel = olerrors.ErrUnknownKernel
	// ErrUnknownExperiment reports an experiment ID outside Experiments().
	ErrUnknownExperiment = olerrors.ErrUnknownExperiment
	// ErrInvalidSpec reports a structurally invalid kernel spec or config.
	ErrInvalidSpec = olerrors.ErrInvalidSpec
	// ErrCanceled reports a sweep stopped by its context.
	ErrCanceled = olerrors.ErrCanceled
	// ErrCellPanic reports an experiment cell that panicked; the sweep
	// recovers it into an error instead of crashing.
	ErrCellPanic = olerrors.ErrCellPanic
	// ErrCellTimeout reports a cell killed by the WithCellTimeout
	// watchdog.
	ErrCellTimeout = olerrors.ErrCellTimeout
)

// Config is the complete simulator configuration (Table 1 plus PIM and
// run parameters). See internal/config for field documentation.
type Config = config.Config

// Primitive selects the memory-ordering discipline of a run.
type Primitive = config.Primitive

// The four ordering disciplines: no ordering (functionally incorrect),
// the core-centric fence baseline, the paper's OrderLight, and the §8.1
// sequence-number related-work baseline.
const (
	PrimitiveNone       = config.PrimitiveNone
	PrimitiveFence      = config.PrimitiveFence
	PrimitiveOrderLight = config.PrimitiveOrderLight
	PrimitiveSeqno      = config.PrimitiveSeqno
)

// Host kinds: the paper's GPU host and the §9 OoO-CPU extension.
const (
	HostGPU = config.HostGPU
	HostCPU = config.HostCPU
)

// Result holds every measurement of a run: execution time, PIM command
// and data bandwidth, stall cycles, primitive counts, and the functional
// verification verdict.
type Result = stats.Run

// Kernel is a generated, runnable PIM kernel (programs + memory image).
type Kernel = kernel.Kernel

// Spec describes a workload's per-tile phase structure. User code may
// define its own Spec and run it with BuildCustomKernel; Spec.Validate
// reports structural problems.
type Spec = kernel.Spec

// PhaseSpec is one command group within a kernel tile.
type PhaseSpec = kernel.PhaseSpec

// Kind classifies a PIM command; ALUOp selects its arithmetic. These
// re-exports let user code author custom kernel specs.
type (
	Kind  = isa.Kind
	ALUOp = isa.ALUOp
)

// PIM command kinds for custom kernel phases.
const (
	KindPIMLoad    = isa.KindPIMLoad
	KindPIMCompute = isa.KindPIMCompute
	KindPIMStore   = isa.KindPIMStore
	KindPIMScale   = isa.KindPIMScale
	KindPIMExec    = isa.KindPIMExec
)

// ALU operations for custom kernel phases.
const (
	OpNop   = isa.OpNop
	OpAdd   = isa.OpAdd
	OpMul   = isa.OpMul
	OpMAC   = isa.OpMAC
	OpScale = isa.OpScale
	OpCopy  = isa.OpCopy
	OpSub   = isa.OpSub
	OpMax   = isa.OpMax
	OpXor   = isa.OpXor
	OpIncr  = isa.OpIncr
)

// Machine is the assembled simulated system.
type Machine = gpu.Machine

// HostTraffic configures synthetic concurrent host loads (fine-grained
// arbitration scenarios).
type HostTraffic = gpu.HostTraffic

// Table is a rendered experiment result (one paper table or figure).
type Table = experiments.Table

// Tracer records per-request stage crossings through the memory pipe;
// arm one with Machine.SetTracer before Run.
type Tracer = trace.Tracer

// NewTracer creates a tracer retaining the most recent max events.
func NewTracer(max int) *Tracer { return trace.New(max) }

// EventSink consumes the machine's streaming event feed (stage
// crossings, DRAM commands, warp stalls, skip-ahead credits); arm one
// with WithTraceSink or Machine.SetSink.
type EventSink = obs.Sink

// TraceEvent is one event in the streaming feed.
type TraceEvent = obs.Event

// EventTrack names the component timeline a TraceEvent belongs to.
type EventTrack = obs.Track

// PerfettoSink streams the event feed as Chrome trace-event JSON,
// loadable in ui.perfetto.dev. Close it after the run to terminate the
// document.
type PerfettoSink = obs.PerfettoSink

// NewPerfettoSink creates a Perfetto JSON sink streaming to w.
func NewPerfettoSink(w io.Writer) *PerfettoSink { return obs.NewPerfettoSink(w) }

// Manifest is the provenance record of one simulated cell (config hash,
// seed, engine, wall time, go version).
type Manifest = obs.Manifest

// ConfigHash returns the short deterministic digest manifests identify
// configurations by.
func ConfigHash(cfg Config) string { return obs.ConfigHash(cfg) }

// Sampler snapshots a run's counters every N core cycles into a
// time-series; arm one with WithSampler. The cadence is exact even
// under the quiescence skip-ahead engine.
type Sampler = stats.Sampler

// MetricSample is one sampled counter snapshot.
type MetricSample = stats.Sample

// NewSampler creates a sampler with the given cadence in core cycles.
func NewSampler(everyCycles int64) *Sampler { return stats.NewSampler(everyCycles) }

// Scale controls the data footprint experiments simulate.
type Scale = experiments.Scale

// DefaultConfig returns the paper's Table 1 configuration: Volta-class
// GPU, 16-channel HBM, BMF 16, 1/8-row-buffer temporary storage,
// OrderLight primitive.
func DefaultConfig() Config { return config.Default() }

// ParsePrimitive converts "none", "fence" or "orderlight" to a Primitive.
func ParsePrimitive(s string) (Primitive, error) { return config.ParsePrimitive(s) }

// Kernels lists the Table 2 workload names.
func Kernels() []string { return kernel.Names() }

// KernelSpec returns a workload's specification by name.
func KernelSpec(name string) (Spec, error) { return kernel.ByName(name) }

// BuildKernel generates a kernel's programs and initial memory image for
// the given per-channel data footprint in bytes.
func BuildKernel(cfg Config, name string, bytesPerChannel int64) (*Kernel, error) {
	spec, err := kernel.ByName(name)
	if err != nil {
		return nil, err
	}
	return kernel.Build(cfg, spec, bytesPerChannel)
}

// BuildCustomKernel generates a runnable kernel from a user-defined
// spec — the "intrinsics" programming model of §5.4: describe the
// per-tile phase structure and the generator emits the fine-grained PIM
// commands and ordering primitives.
func BuildCustomKernel(cfg Config, spec Spec, bytesPerChannel int64) (*Kernel, error) {
	return kernel.Build(cfg, spec, bytesPerChannel)
}

// SpreadTiles returns a copy of the spec with tiles spread across
// memory-groups (per-group ordering makes this safe; see the
// ablation-placement experiment).
func SpreadTiles(spec Spec) Spec { return kernel.WithSpread(spec) }

// NewMachine assembles a simulator around a built kernel.
func NewMachine(cfg Config, k *Kernel) (*Machine, error) {
	return gpu.NewMachine(cfg, k.Store, k.Programs)
}

// FaultSpec selects a seeded ordering-fault injection campaign class
// for a run (see WithFaultPlan and RunFaultedKernelContext).
type FaultSpec = fault.Spec

// FaultClass enumerates the injectable ordering-fault classes.
type FaultClass = fault.Class

// The injectable fault classes: drop ordering packets at issue, weaken
// OrderLight drain semantics in the controller, illegally reorder
// issues past in-flight epochs in the FR-FCFS arbiter, and delay PIM
// result visibility.
const (
	FaultNone           = fault.ClassNone
	FaultDropOrdering   = fault.ClassDropOrdering
	FaultWeakenDrain    = fault.ClassWeakenDrain
	FaultIllegalReorder = fault.ClassIllegalReorder
	FaultDelayVisible   = fault.ClassDelayVisibility
)

// ParseFaultClass parses a fault-class name (drop, weaken, reorder,
// delay, none).
func ParseFaultClass(s string) (FaultClass, error) { return fault.ParseClass(s) }

// FaultClasses lists every injectable class.
func FaultClasses() []FaultClass { return fault.Classes() }

// FaultVerdict is the differential oracle's classification of a
// fault-injected run; FaultOutcome enumerates its verdicts.
type (
	FaultVerdict = fault.Verdict
	FaultOutcome = fault.Outcome
)

// Oracle outcomes: clean (no fault fired), benign (fault fired, answer
// correct), detected (wrong answer, flagged by verification), escape
// (wrong answer the verifier missed, or oracle/verifier disagreement —
// a simulator bug).
const (
	FaultClean    = fault.OutcomeClean
	FaultBenign   = fault.OutcomeBenign
	FaultDetected = fault.OutcomeDetected
	FaultEscape   = fault.OutcomeEscape
)

// FaultSummary aggregates a fault campaign's verdict counts.
type FaultSummary = experiments.FaultSummary

// RunOpts is the validated bag of run options every entry point builds
// exactly once per call with buildOpts. Most callers never name the
// type — they pass With* options — but services and daemon clients may
// fill it directly (its JSON-tagged fields are the wire format).
// Options never change simulation results — parallelism, progress
// reporting and caching are invisible in the output, which stays
// byte-identical to a sequential run.
type RunOpts = serve.RunOpts

// Option adjusts how a context-aware entry point executes by setting a
// field of the RunOpts bag.
type Option func(*RunOpts)

// buildOpts folds the options into a RunOpts and validates it. Every
// entry point calls it exactly once; all option invariants (resume
// needs a checkpoint directory, negative counts, malformed fault
// specs, ...) live behind RunOpts.Validate, not in the entry points.
func buildOpts(opts ...Option) (RunOpts, error) {
	var o RunOpts
	for _, opt := range opts {
		opt(&o)
	}
	if err := o.Validate(); err != nil {
		return RunOpts{}, err
	}
	return o, nil
}

// WithParallelism bounds the sweep's worker pool to n goroutines.
// n <= 0 (and the default) means one worker per CPU (GOMAXPROCS);
// WithParallelism(1) forces a fully sequential run.
func WithParallelism(n int) Option {
	return func(o *RunOpts) { o.Parallelism = n }
}

// WithProgress installs a callback invoked after every completed
// simulation cell with the running completion count. Calls are
// serialized and monotonic; the callback must be fast and must not call
// back into this package.
func WithProgress(fn func(done, total int)) Option {
	return func(o *RunOpts) { o.Progress = fn }
}

// WithKernelCache enables or disables the built-kernel cache (enabled
// by default). The cache shares one generated kernel image among every
// cell with identical (config, spec, footprint); each use gets its own
// copy of the mutable memory image, so results are unaffected.
func WithKernelCache(enabled bool) Option {
	return func(o *RunOpts) { o.NoKernelCache = !enabled }
}

// WithEngine selects the simulation engine by name: "skip" (the
// default quiescence skip-ahead) or "dense", the naive tick engine on
// which every clock edge fires even when all components are provably
// idle. Results are byte-identical either way (the skip-ahead engine's
// hints are gated by cycle-exact parity tests); the dense engine is the
// reference for those tests and an escape hatch when debugging the
// simulator itself. It is the string-typed form the CLIs' -engine flag
// funnels through; unknown names are rejected by option validation,
// never silently mapped to a default.
func WithEngine(name string) Option {
	return func(o *RunOpts) { o.Engine = name }
}

// WithScale overrides the data footprint experiments simulate (the
// zero Scale means the default 256 KiB per channel).
func WithScale(sc Scale) Option {
	return func(o *RunOpts) { o.BytesPerChannel = sc.BytesPerChannel }
}

// WithTraceSink streams every machine event of the run into the sink —
// stage crossings, DRAM commands, warp fence/OrderLight stalls, elided
// skip-ahead windows. Only single-cell entry points (RunKernelContext,
// RunSpecContext) accept it; experiment sweeps reject it with
// ErrInvalidSpec because parallel cells would interleave the stream.
func WithTraceSink(s EventSink) Option {
	return func(o *RunOpts) { o.Sink = s }
}

// WithSampler snapshots the run's counters into the sampler every
// sampler-cadence core cycles. Single-cell entry points only, like
// WithTraceSink.
func WithSampler(s *Sampler) Option {
	return func(o *RunOpts) { o.Sampler = s }
}

// WithFaultPlan arms a seeded ordering-fault injection plan for the
// run: the machine deliberately drops ordering packets, weakens drain
// semantics, illegally reorders issues, or delays PIM visibility per
// the spec, and the result carries the differential oracle's Verdict.
// Only single-cell entry points (RunKernelContext, RunSpecContext)
// accept it; experiment sweeps reject it with ErrInvalidSpec — the
// fault campaign (RunFaultCampaignContext) declares its own grid.
func WithFaultPlan(spec FaultSpec) Option {
	return func(o *RunOpts) { o.Fault = spec }
}

// WithManifest attaches a provenance Manifest to every simulated cell;
// experiment tables carry them in Table.Manifests (rendered by
// Table.ManifestMarkdown and the olbench -manifest flag). Manifests
// record wall-clock time, so enabling them makes output
// run-dependent — keep them out of byte-identity comparisons.
func WithManifest() Option {
	return func(o *RunOpts) { o.Manifest = true }
}

// WithCheckpointDir makes the run crash-safe: every finished cell is
// appended to a progress journal in the directory, one synced line per
// cell. Combine with WithResume to continue an interrupted run — the
// resumed run's results are byte-identical to an uninterrupted one.
func WithCheckpointDir(dir string) Option {
	return func(o *RunOpts) { o.CheckpointDir = dir }
}

// WithResume continues an interrupted run from its checkpoint
// directory: cells the journal records complete are not re-simulated;
// every other cell runs from the start. Requires WithCheckpointDir.
func WithResume() Option {
	return func(o *RunOpts) { o.Resume = true }
}

// WithCellRetries retries a transiently failing cell (panic, deadline,
// watchdog timeout) up to n more times with exponential backoff.
func WithCellRetries(n int) Option {
	return func(o *RunOpts) { o.Retries = n }
}

// WithCellTimeout arms a per-cell wall-clock watchdog: a cell running
// longer is cooperatively aborted and reported as ErrCellTimeout (a
// retryable failure under WithCellRetries).
func WithCellTimeout(d time.Duration) Option {
	return func(o *RunOpts) { o.CellTimeout = d }
}

// WithResultCache memoizes completed cells in a content-addressed
// on-disk store: a later run (same process or not) that needs an
// identical cell — same config hash, kernel, footprint and engine —
// is served from the cache without simulating, byte-identical to a
// recompute. Fault-injected cells are never cached (the oracle must
// re-run), and a damaged cache entry falls back to recomputation.
// An empty dir keeps the cache in memory only.
func WithResultCache(dir string) Option {
	return func(o *RunOpts) { o.CacheDir = dir }
}

// inProcess is the lazily started Service behind the Run* facade: a
// local job service with a deep queue and one job worker per CPU. The
// facade entry points are thin adapters over it — the same Submit,
// Await and Execute path a daemon request takes, which is what keeps
// HTTP results byte-identical to in-process ones.
var (
	inProcessOnce sync.Once
	inProcessSvc  *serve.Local
)

func inProcess() *serve.Local {
	inProcessOnce.Do(func() {
		inProcessSvc = serve.NewLocal(serve.LocalConfig{
			QueueDepth: 4096,
			Workers:    runtime.GOMAXPROCS(0),
		})
	})
	return inProcessSvc
}

// runJob submits one request to the in-process service and waits for
// its result, returning the job's original error object so errors.Is
// classification is exact. One-shot jobs are forgotten after
// collection — the facade does not accumulate job records.
func runJob(ctx context.Context, req serve.JobRequest) (*serve.JobResult, error) {
	svc := inProcess()
	id, err := svc.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	res, err := serve.Await(ctx, svc, id, nil)
	svc.Forget(id)
	return res, err
}

// RunKernelContext builds and simulates a named kernel under ctx. The
// run executes on the experiment engine, so a panic inside the
// simulator surfaces as an error wrapping ErrCellPanic and a canceled
// context as ErrCanceled.
func RunKernelContext(ctx context.Context, cfg Config, name string, bytesPerChannel int64, opts ...Option) (*Result, error) {
	o, err := buildOpts(opts...)
	if err != nil {
		return nil, err
	}
	res, err := runJob(ctx, serve.JobRequest{
		Kind: serve.KindKernel, Kernel: name, Bytes: bytesPerChannel, Config: &cfg, Opts: o,
	})
	if err != nil {
		return nil, err
	}
	return res.Run, nil
}

// RunSpecContext builds and simulates a user-defined spec under ctx,
// returning the measurements together with the built kernel (for
// HostBaseline and inspection).
func RunSpecContext(ctx context.Context, cfg Config, spec Spec, bytesPerChannel int64, opts ...Option) (*Result, *Kernel, error) {
	o, err := buildOpts(opts...)
	if err != nil {
		return nil, nil, err
	}
	res, err := runJob(ctx, serve.JobRequest{
		Kind: serve.KindSpec, Spec: &spec, Bytes: bytesPerChannel, Config: &cfg, Opts: o,
	})
	if err != nil {
		return nil, nil, err
	}
	return res.Run, res.Kernel, nil
}

// RunFaultedKernelContext builds and simulates a named kernel with the
// given ordering-fault spec armed, returning the measurements together
// with the differential oracle's verdict. A verdict of FaultEscape
// means the simulator produced a wrong answer its own verification
// machinery failed to flag — a simulator bug.
func RunFaultedKernelContext(ctx context.Context, cfg Config, name string, bytesPerChannel int64, fspec FaultSpec, opts ...Option) (*Result, *FaultVerdict, error) {
	o, err := buildOpts(opts...)
	if err != nil {
		return nil, nil, err
	}
	o.Fault = fspec
	if err := o.Validate(); err != nil {
		return nil, nil, err
	}
	res, err := runJob(ctx, serve.JobRequest{
		Kind: serve.KindKernel, Kernel: name, Bytes: bytesPerChannel, Config: &cfg, Opts: o,
	})
	if err != nil {
		return nil, nil, err
	}
	return res.Run, res.Verdict, nil
}

// RunKernel builds and simulates a named kernel and returns its
// measurements. It is RunKernelContext without cancellation.
func RunKernel(cfg Config, name string, bytesPerChannel int64) (*Result, error) {
	return RunKernelContext(context.Background(), cfg, name, bytesPerChannel)
}

// HostBaseline returns the roofline GPU-only execution time for a built
// kernel, in milliseconds — the paper's GPU bars.
func HostBaseline(cfg Config, k *Kernel) float64 {
	return k.HostTime(cfg).Milliseconds()
}

// Experiments lists every reproducible table/figure ID.
func Experiments() []string { return experiments.IDs() }

// ExperimentTitle returns an experiment's one-line description.
func ExperimentTitle(id string) string { return experiments.Title(id) }

// RunExperimentContext regenerates one paper table/figure (or ablation)
// under ctx, fanning its simulation cells across the worker pool.
func RunExperimentContext(ctx context.Context, id string, cfg Config, opts ...Option) (*Table, error) {
	o, err := buildOpts(opts...)
	if err != nil {
		return nil, err
	}
	res, err := runJob(ctx, serve.JobRequest{
		Kind: serve.KindExperiment, Experiment: id, Config: &cfg, Opts: o,
	})
	if err != nil {
		return nil, err
	}
	return res.Tables[0], nil
}

// RunAllExperimentsContext regenerates every table and figure under
// ctx. All experiments' cells share one worker pool and one kernel
// cache, so the sweep saturates the machine across experiment
// boundaries; tables come back in Experiments() order and are
// byte-identical to a sequential (WithParallelism(1)) run.
func RunAllExperimentsContext(ctx context.Context, cfg Config, opts ...Option) ([]*Table, error) {
	o, err := buildOpts(opts...)
	if err != nil {
		return nil, err
	}
	res, err := runJob(ctx, serve.JobRequest{
		Kind: serve.KindSweep, Config: &cfg, Opts: o,
	})
	if err != nil {
		return nil, err
	}
	return res.Tables, nil
}

// RunFaultCampaignContext runs the default ordering-fault injection
// campaign (kernel × fault-class × seed grid, experiment ID
// "fault-campaign") and returns the rendered matrix together with the
// verdict summary. Summary.Escapes must be zero on a healthy simulator
// and Summary.PinnedDetected must be true: the campaign pins the
// paper's Figure 5 no-fence wrong answer as a deterministic detection.
func RunFaultCampaignContext(ctx context.Context, cfg Config, opts ...Option) (*Table, FaultSummary, error) {
	o, err := buildOpts(opts...)
	if err != nil {
		return nil, FaultSummary{}, err
	}
	res, err := runJob(ctx, serve.JobRequest{
		Kind: serve.KindFaultCampaign, Config: &cfg, Opts: o,
	})
	if err != nil {
		return nil, FaultSummary{}, err
	}
	return res.Tables[0], *res.Summary, nil
}

// RunExperiment regenerates one paper table/figure (or ablation). It is
// RunExperimentContext without cancellation.
func RunExperiment(id string, cfg Config, sc Scale) (*Table, error) {
	return RunExperimentContext(context.Background(), id, cfg, WithScale(sc))
}

// RunAllExperiments regenerates every table and figure. It is
// RunAllExperimentsContext without cancellation.
func RunAllExperiments(cfg Config, sc Scale) ([]*Table, error) {
	return RunAllExperimentsContext(context.Background(), cfg, WithScale(sc))
}
