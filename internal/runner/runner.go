package runner

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"orderlight/internal/chaos"
	"orderlight/internal/config"
	"orderlight/internal/fault"
	"orderlight/internal/gpu"
	"orderlight/internal/kernel"
	"orderlight/internal/obs"
	"orderlight/internal/olerrors"
	"orderlight/internal/rcache"
	"orderlight/internal/stats"
)

// Cell is one independent simulation in an experiment grid.
type Cell struct {
	// Key identifies the cell in errors and logs, e.g.
	// "fig10a/add/fence/ts=1/8".
	Key string

	Cfg   config.Config
	Spec  kernel.Spec
	Bytes int64 // per-channel footprint of the primary data structure

	// Host builds the host-streaming program (the validation baseline)
	// instead of the PIM kernel.
	Host bool

	// Traffic injects synthetic concurrent host loads (zero disables).
	Traffic gpu.HostTraffic

	// Fault, when active, arms a seeded ordering-fault injection plan
	// for this cell; the result then carries the differential oracle's
	// Verdict. Each cell materializes its own fault.Plan from the spec,
	// so faulted cells parallelize like any others. PIM kernels only —
	// a host-baseline cell with an active Fault is rejected.
	Fault fault.Spec

	// hook, when set, runs at the start of the cell's execution. It is a
	// package-private test seam for exercising panic recovery.
	hook func()
}

// Result holds everything one cell's simulation produced.
type Result struct {
	Run    *stats.Run
	Kernel *kernel.Kernel

	// Concurrent-host measurements (zero when the cell had no Traffic).
	HostLatency float64 // mean host-load latency in core cycles
	HostServed  int64   // host loads served

	// Manifest is the cell's provenance record; nil unless the engine
	// was created with Options.Manifest.
	Manifest *obs.Manifest

	// Fault is the differential oracle's verdict on a fault-injected
	// cell; nil unless the cell had an active Fault spec.
	Fault *fault.Verdict
}

// CellError is the typed error a failing cell contributes to the sweep:
// it names the cell and wraps the underlying cause (including
// olerrors.ErrCellPanic for recovered panics), so errors.Is works on
// the sweep-level error.
type CellError struct {
	Key   string
	Index int // position in the declared cell list
	Err   error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("cell %d (%s): %v", e.Index, e.Key, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// Options configures an Engine.
type Options struct {
	// Parallelism bounds the worker pool; <= 0 means GOMAXPROCS.
	Parallelism int

	// Progress, when set, is called after every completed cell with the
	// running completion count. Calls are serialized and monotonic; the
	// callback must be fast and must not call back into the engine.
	Progress func(done, total int)

	// DisableKernelCache turns off the built-kernel cache (every cell
	// regenerates its kernel image from scratch).
	DisableKernelCache bool

	// DenseEngine runs every cell on the naive dense tick engine instead
	// of the quiescence skip-ahead one. Results are byte-identical; the
	// dense engine is the parity reference and a debugging escape hatch.
	DenseEngine bool

	// TraceSink, when set, streams every machine event (stage crossings,
	// DRAM commands, warp stalls, skip credits) from the run into the
	// sink. Only legal for single-cell Run calls: a multi-cell sweep
	// would interleave streams nondeterministically, so Run rejects it.
	TraceSink obs.Sink

	// Sampler, when set, snapshots the run's counters every N core
	// cycles into a time-series. Single-cell only, like TraceSink.
	Sampler *stats.Sampler

	// Manifest attaches a provenance record (config hash, seed, engine,
	// wall time, go version) to every Result.
	Manifest bool

	// CheckpointDir enables crash-safe progress: every completed cell is
	// appended to a progress journal (journal.jsonl) in the directory.
	// Empty disables.
	CheckpointDir string

	// Resume continues an interrupted sweep from CheckpointDir: cells
	// recorded complete in the journal are reconstructed without
	// re-simulating; every other cell runs from the start. Requires a
	// CheckpointDir.
	Resume bool

	// CellRetries retries a cell that failed transiently (recovered
	// panic, simulation deadline, watchdog timeout) up to N more times
	// with exponential backoff; 0 disables.
	CellRetries int

	// CellTimeout arms a per-cell wall-clock watchdog: a cell running
	// longer is cooperatively aborted and reported as
	// olerrors.ErrCellTimeout. 0 disables.
	CellTimeout time.Duration

	// ResultCache, when set, memoizes completed cell results in a
	// content-addressed store: each unfaulted cell is looked up before
	// execution and inserted after its verification verdict is recorded.
	// A warm rerun of an identical sweep simulates zero cells and
	// produces byte-identical output. Ignored for cells/engines the
	// cache cannot serve faithfully (fault injection, trace sinks,
	// samplers).
	ResultCache *rcache.Cache

	// FS is the filesystem the progress journal writes through; nil
	// means the real one. The chaos harness injects its sick disk here.
	// A failed append turns the journal off instead of failing cells: a
	// run on a dying disk loses crash-resume coverage, never results.
	FS chaos.FS
}

// Engine executes cell lists. An Engine is safe for concurrent use and
// its kernel cache persists across Run calls, so one engine should
// serve a whole sweep.
type Engine struct {
	par      int
	progress func(done, total int)
	dense    bool
	cache    *kernelCache
	sink     obs.Sink
	sampler  *stats.Sampler
	manifest bool

	ckptDir   string
	resume    bool
	retries   int
	cellTO    time.Duration
	rcache    *rcache.Cache
	fs        chaos.FS
	retryBase time.Duration // backoff base; test seam, 0 means 10ms
	grace     time.Duration // watchdog abandon grace; test seam

	simulated atomic.Int64 // cells actually executed (not replayed or cache-served)

	// A failed journal append stops journaling for the rest of the
	// engine's life: appending past a torn line would turn a tolerable
	// torn tail into a loud corrupt middle on the next resume. It costs
	// resume coverage, never correctness.
	journalDown atomic.Bool

	mu   sync.Mutex // serializes progress callbacks
	done int
}

// New creates an engine.
func New(opts Options) *Engine {
	e := &Engine{
		par:      opts.Parallelism,
		progress: opts.Progress,
		dense:    opts.DenseEngine,
		sink:     opts.TraceSink,
		sampler:  opts.Sampler,
		manifest: opts.Manifest,
		ckptDir:  opts.CheckpointDir,
		resume:   opts.Resume,
		retries:  opts.CellRetries,
		cellTO:   opts.CellTimeout,
		rcache:   opts.ResultCache,
		fs:       opts.FS,
	}
	if e.fs == nil {
		e.fs = chaos.OS
	}
	if !opts.DisableKernelCache {
		e.cache = newKernelCache()
	}
	return e
}

// CacheStats reports built-kernel cache hits and misses accumulated
// over the engine's lifetime (both zero when the cache is disabled).
func (e *Engine) CacheStats() (hits, misses int64) {
	if e.cache == nil {
		return 0, 0
	}
	return e.cache.stats()
}

// Run executes the cells and returns their results in declaration
// order. The first failing cell (in declaration order) aborts the
// sweep: already-running cells finish, unstarted cells never start, and
// the returned error is a *CellError naming the culprit. A canceled
// context yields an error wrapping olerrors.ErrCanceled unless a
// non-cancellation failure happened first.
func (e *Engine) Run(ctx context.Context, cells []Cell) ([]Result, error) {
	if len(cells) > 1 {
		// Name the offending option: "TraceSink/Sampler" told the caller
		// nothing about which of their options to remove.
		if e.sink != nil {
			return nil, fmt.Errorf("runner: %w: WithTraceSink attaches to exactly one cell, got %d",
				olerrors.ErrInvalidSpec, len(cells))
		}
		if e.sampler != nil {
			return nil, fmt.Errorf("runner: %w: WithSampler attaches to exactly one cell, got %d",
				olerrors.ErrInvalidSpec, len(cells))
		}
	}
	if e.resume && e.ckptDir == "" {
		return nil, fmt.Errorf("runner: %w: Resume needs a CheckpointDir", olerrors.ErrInvalidSpec)
	}
	var (
		journal   *cellJournal
		doneCells map[string]journalEntry
	)
	if e.ckptDir != "" {
		if err := e.fs.MkdirAll(e.ckptDir, 0o755); err != nil {
			return nil, fmt.Errorf("runner: checkpoint dir: %w", err)
		}
		jpath := filepath.Join(e.ckptDir, journalName)
		if e.resume {
			m, err := loadJournal(jpath)
			if err != nil {
				return nil, err
			}
			doneCells = m
		}
		j, err := openJournal(jpath, e.fs)
		if err != nil {
			return nil, err
		}
		journal = j
		defer journal.Close()
	}
	total := len(cells)
	results := make([]Result, total)
	errs := make([]error, total)

	par := e.par
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > total {
		par = total
	}

	var (
		mu      sync.Mutex
		next    int
		stopped bool
		wg      sync.WaitGroup
	)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped || next >= total {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	finish := func(i int, err error) {
		mu.Lock()
		errs[i] = err
		if err != nil {
			stopped = true
		}
		mu.Unlock()
		e.tick(total)
	}

	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				if cerr := ctx.Err(); cerr != nil {
					finish(i, &CellError{Key: cells[i].Key, Index: i,
						Err: fmt.Errorf("%w: %v", olerrors.ErrCanceled, cerr)})
					continue
				}
				id := cellID{cell: &cells[i]}
				if ent, ok := id.journaled(doneCells); ok {
					res, err := e.replayJournal(&cells[i], ent)
					if err != nil {
						finish(i, &CellError{Key: cells[i].Key, Index: i, Err: err})
						continue
					}
					results[i] = res
					finish(i, nil)
					continue
				}
				res, err := e.runCellRetry(ctx, &id, journal)
				if err != nil {
					finish(i, &CellError{Key: cells[i].Key, Index: i, Err: err})
					continue
				}
				results[i] = res
				finish(i, nil)
			}
		}()
	}
	wg.Wait()

	// Prefer a real failure over a cancellation artifact: a canceled
	// sweep marks every unfinished cell with ErrCanceled, which must not
	// shadow the genuine error that may hide behind it.
	var cancelErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, olerrors.ErrCanceled) {
			if cancelErr == nil {
				cancelErr = err
			}
			continue
		}
		return nil, err
	}
	if cancelErr != nil {
		return nil, cancelErr
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("runner: %w: %v", olerrors.ErrCanceled, cerr)
	}
	return results, nil
}

// tick advances the completion counter and reports progress. The
// engine-level mutex keeps callbacks serialized and counts monotonic
// even when several Run calls share the engine.
func (e *Engine) tick(total int) {
	if e.progress == nil {
		e.mu.Lock()
		e.done++
		e.mu.Unlock()
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.done++
	e.progress(e.done, total)
}

// runCell executes one simulation with panic recovery. stop, when
// non-nil, is the cooperative abort flag the watchdog and cancellation
// paths set; the machine polls it between engine steps.
func (e *Engine) runCell(c *Cell, stop *atomic.Bool) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v\n%s", olerrors.ErrCellPanic, r, debug.Stack())
		}
	}()
	if c.hook != nil {
		c.hook()
	}

	var plan *fault.Plan
	if c.Fault.Active() {
		if err := c.Fault.Validate(); err != nil {
			return Result{}, err
		}
		if c.Host {
			return Result{}, fmt.Errorf("runner: %w: fault injection targets the PIM pipeline; host-baseline cell %q cannot take a Fault spec",
				olerrors.ErrInvalidSpec, c.Key)
		}
		plan = fault.NewPlan(c.Fault)
	}

	k, err := e.buildKernel(c)
	if err != nil {
		return Result{}, err
	}
	m, err := gpu.Acquire(c.Cfg, k.Store, k.Programs)
	if err != nil {
		return Result{}, err
	}
	if plan != nil {
		m.SetFaultPlan(plan)
	}
	if c.Traffic.PerChannel > 0 {
		m.SetHostTraffic(c.Traffic)
	}
	if e.dense {
		m.SetDense(true)
	}
	if e.sink != nil {
		m.SetSink(e.sink)
	}
	if e.sampler != nil {
		m.SetSampler(e.sampler)
	}
	if stop != nil {
		m.SetAbort(stop.Load)
	}
	e.simulated.Add(1)
	start := time.Now()
	st, err := m.Run()
	wall := time.Since(start)
	if err != nil {
		return Result{}, fmt.Errorf("%s (%v, TS %dB): %w",
			c.Spec.Name, c.Cfg.Run.Primitive, c.Cfg.PIM.TSBytes, err)
	}
	lat, served := m.HostLatency()
	// Nothing below reads the machine: the statistics and the store
	// are the cell's own. A failed or panicked run never gets here, so
	// its machine is never reused.
	m.Release()
	res = Result{Run: st, Kernel: k, HostLatency: lat, HostServed: served}
	if plan != nil {
		v, oerr := e.classifyFault(c, k, st, plan)
		if oerr != nil {
			return Result{}, oerr
		}
		res.Fault = &v
	}
	if e.manifest {
		res.Manifest = e.newManifest(c, float64(wall.Nanoseconds())/1e6)
	}
	return res, nil
}

// newManifest builds a cell's provenance record. Journal-replayed cells
// carry zero wall time — they did not run.
func (e *Engine) newManifest(c *Cell, wallMS float64) *obs.Manifest {
	return &obs.Manifest{
		Cell:            c.Key,
		Kernel:          c.Spec.Name,
		Primitive:       c.Cfg.Run.Primitive.String(),
		Seed:            c.Cfg.Run.Seed,
		Channels:        c.Cfg.Memory.Channels,
		TSBytes:         c.Cfg.PIM.TSBytes,
		BMF:             c.Cfg.PIM.BMF,
		BytesPerChannel: c.Bytes,
		HostBaseline:    c.Host,
		ConfigHash:      obs.ConfigHash(c.Cfg),
		Engine:          obs.EngineName(e.dense),
		WallMS:          wallMS,
		GoVersion:       runtime.Version(),
	}
}

// classifyFault runs the differential oracle for a fault-injected cell:
// it rebuilds a pristine kernel image (the cache hands out an
// independent store clone per use), replays every program on the
// reference PIM executor to obtain the golden image, and classifies the
// faulted run's final store against it. The golden replay is fully
// independent of the simulator's own Verify pass, so a disagreement
// between the two is an escape, not a tautology.
func (e *Engine) classifyFault(c *Cell, k *kernel.Kernel, st *stats.Run, plan *fault.Plan) (fault.Verdict, error) {
	gold, err := e.buildKernel(c)
	if err != nil {
		return fault.Verdict{}, fmt.Errorf("runner: fault oracle rebuild: %w", err)
	}
	if err := gpu.Replay(c.Cfg, gold.Store, gold.Programs); err != nil {
		return fault.Verdict{}, fmt.Errorf("runner: fault oracle replay: %w", err)
	}
	return fault.Classify(gold.Store, k.Store, st, plan.Report()), nil
}

// buildKernel generates or fetches the cell's kernel image. Cached
// kernels share their immutable parts (programs, accounting); the
// mutable DRAM store is cloned per use so concurrent runs never alias.
func (e *Engine) buildKernel(c *Cell) (*kernel.Kernel, error) {
	if e.cache == nil {
		return buildCell(c)
	}
	return e.cache.get(c)
}

func buildCell(c *Cell) (*kernel.Kernel, error) {
	if c.Host {
		return kernel.BuildHost(c.Cfg, c.Spec, c.Bytes)
	}
	return kernel.Build(c.Cfg, c.Spec, c.Bytes)
}
