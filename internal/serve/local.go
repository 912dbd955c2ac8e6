package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"orderlight/internal/chaos"
	"orderlight/internal/experiments"
	"orderlight/internal/fault"
	"orderlight/internal/obs"
	"orderlight/internal/olerrors"
	"orderlight/internal/rcache"
	"orderlight/internal/stats"
)

// LocalConfig tunes the production Service implementation.
type LocalConfig struct {
	// QueueDepth bounds the FIFO job queue; Submit fails with
	// ErrQueueFull beyond it. <= 0 means 64.
	QueueDepth int

	// PerTenant caps each tenant's queued-plus-running jobs; Submit
	// fails with ErrQuotaExceeded beyond it. <= 0 disables quotas.
	PerTenant int

	// Workers is how many jobs execute concurrently (each job still
	// fans its cells across its own worker pool). <= 0 means 1.
	Workers int

	// CheckpointRoot, when set, gives every job without an explicit
	// checkpoint directory one keyed by the request's content hash
	// under this root, with resume armed. A job preempted by Drain (or
	// a daemon crash) then continues from its journal when the
	// identical request is resubmitted: finished cells replay from the
	// journal and only the rest simulate.
	CheckpointRoot string

	// CacheDir, when set, opens a shared content-addressed result
	// cache (internal/rcache): per-cell results are memoized inside
	// every job, and whole memoizable jobs are answered without
	// running — across tenants, since identical requests produce
	// byte-identical results regardless of who submitted them. An
	// unopenable directory fails every Submit rather than silently
	// running uncached.
	CacheDir string

	// CacheBytes caps the result cache's on-disk footprint; past it the
	// least recently used blobs are evicted. <= 0 means uncapped.
	CacheBytes int64

	// FS is the filesystem the result cache and every job's cell
	// journal write through, unless a job brings its own; nil means the
	// real one (the chaos harness injects its sick disk here).
	FS chaos.FS
}

// job is the service-side record of one submission.
type job struct {
	id     JobID
	req    JobRequest
	state  JobState
	err    error
	res    *JobResult
	done   int
	total  int
	cancel context.CancelFunc

	// resumable records that the job runs with a checkpoint directory,
	// so preemption leaves it continuable.
	resumable bool

	submitted time.Time
	started   time.Time
	finished  time.Time

	watchers []chan WatchEvent
	// doneCh closes at the terminal transition; Await-style helpers
	// block on it without polling.
	doneCh chan struct{}
}

// Local is the production Service: a bounded FIFO queue in front of
// the runner engine, with admission control, per-tenant quotas,
// graceful drain and checkpoint-backed preemption.
type Local struct {
	cfg LocalConfig

	baseCtx    context.Context
	baseCancel context.CancelFunc

	// cache is the shared result cache (nil without CacheDir);
	// cacheErr records an open failure, surfaced on every Submit.
	cache    *rcache.Cache
	cacheErr error

	mu       sync.Mutex
	seq      int
	jobs     map[JobID]*job
	queue    chan *job
	draining bool
	wg       sync.WaitGroup
}

// NewLocal creates the service and starts its job workers.
func NewLocal(cfg LocalConfig) *Local {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Local{
		cfg:        cfg,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[JobID]*job),
		queue:      make(chan *job, cfg.QueueDepth),
	}
	if cfg.CacheDir != "" {
		s.cache, s.cacheErr = rcache.OpenWith(rcache.Config{Dir: cfg.CacheDir, DiskBytes: cfg.CacheBytes, FS: cfg.FS})
		if s.cacheErr != nil {
			s.cacheErr = fmt.Errorf("serve: %w: result cache %q: %v", olerrors.ErrInvalidSpec, cfg.CacheDir, s.cacheErr)
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit implements Service. Validation and admission are synchronous;
// execution is not.
func (s *Local) Submit(ctx context.Context, req JobRequest) (JobID, error) {
	if err := ctx.Err(); err != nil {
		return "", fmt.Errorf("serve: %w: %v", olerrors.ErrCanceled, err)
	}
	if err := req.Validate(); err != nil {
		return "", err
	}
	if s.cacheErr != nil {
		return "", s.cacheErr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return "", fmt.Errorf("serve: %w", ErrDraining)
	}
	// Idempotent resubmission: a retrying client cannot tell a lost
	// response from a lost request, so it stamps submissions with a
	// content-derived key. If that exact submission is already queued,
	// running or done, hand back its job instead of enqueueing a
	// duplicate. Failed and canceled jobs are excluded on purpose — an
	// explicit resubmit after failure should rerun.
	if req.IdempotencyKey != "" {
		for _, j := range s.jobs {
			if j.req.IdempotencyKey == req.IdempotencyKey &&
				(j.state == StateQueued || j.state == StateRunning || j.state == StateDone) {
				return j.id, nil
			}
		}
	}
	if s.cfg.PerTenant > 0 && s.inflightLocked(req.Tenant) >= s.cfg.PerTenant {
		return "", fmt.Errorf("serve: %w: tenant %q already has %d job(s) in flight",
			ErrQuotaExceeded, tenantName(req.Tenant), s.cfg.PerTenant)
	}
	if s.cfg.CheckpointRoot != "" && req.Opts.CheckpointDir == "" {
		// Key the directory by request content, not job ID: the same
		// request resubmitted after preemption (or a daemon restart)
		// lands on the same journal and resumes instead of restarting.
		req.Opts.CheckpointDir = filepath.Join(s.cfg.CheckpointRoot, requestHash(&req))
		req.Opts.Resume = true
	}
	s.seq++
	j := &job{
		id:        JobID(fmt.Sprintf("job-%06d", s.seq)),
		req:       req,
		state:     StateQueued,
		cancel:    func() {}, // replaced with the real job context's cancel at start
		resumable: req.Opts.CheckpointDir != "",
		submitted: time.Now(),
		doneCh:    make(chan struct{}),
	}
	select {
	case s.queue <- j:
	default:
		return "", fmt.Errorf("serve: %w: %d job(s) queued", ErrQueueFull, s.cfg.QueueDepth)
	}
	s.jobs[j.id] = j
	return j.id, nil
}

// inflightLocked counts a tenant's queued and running jobs. Callers
// hold s.mu.
func (s *Local) inflightLocked(tenant string) int {
	n := 0
	for _, j := range s.jobs {
		if j.req.Tenant == tenant && !j.state.Terminal() {
			n++
		}
	}
	return n
}

func tenantName(t string) string {
	if t == "" {
		return "default"
	}
	return t
}

// requestHash is the deterministic content identity of a request: the
// canonical JSON of its wire fields. In-process fields carry json:"-"
// and so cannot perturb it.
func requestHash(req *JobRequest) string {
	b, err := json.Marshal(req)
	if err != nil {
		// JobRequest is a closed set of marshalable types; a failure
		// here is a programming error, but degrade to a constant rather
		// than panic the daemon.
		return "unhashable"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// worker executes queued jobs until the queue closes (drain).
func (s *Local) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob drives one job from queued to a terminal state.
func (s *Local) runJob(j *job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()

	s.mu.Lock()
	if j.state != StateQueued {
		// Canceled while queued; already terminal.
		s.mu.Unlock()
		return
	}
	if s.draining {
		s.finishLocked(j, nil, fmt.Errorf("serve: %w: job preempted by drain before starting", olerrors.ErrCanceled))
		s.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel // Cancel and Drain now reach the running engine
	s.broadcastLocked(j, WatchEvent{Type: "state", State: StateRunning})
	s.mu.Unlock()

	// The job's own copy of the request gets the service's observers
	// chained onto the caller's: progress feeds Status and Watch, and
	// single-cell trace streaming fans into Watch alongside any
	// in-process sink.
	req := j.req
	userProgress := req.Opts.Progress
	req.Opts.Progress = func(done, total int) {
		if userProgress != nil {
			userProgress(done, total)
		}
		s.mu.Lock()
		j.done, j.total = done, total
		s.broadcastLocked(j, WatchEvent{Type: "progress", Done: done, Total: total})
		s.mu.Unlock()
	}
	if req.Opts.StreamTrace && !req.MultiCell() {
		relay := &watchSink{s: s, j: j}
		if req.Opts.Sink != nil {
			req.Opts.Sink = obs.MultiSink{req.Opts.Sink, relay}
		} else {
			req.Opts.Sink = relay
		}
	}

	// Whole-job memoization: identical memoizable requests — across
	// tenants, since results depend only on the request — are answered
	// straight from the result cache without running.
	memoKey := ""
	if s.cache != nil && jobMemoizable(&req) {
		memoKey = jobCacheKey(&req)
		if res, ok := s.memoGet(memoKey); ok {
			s.mu.Lock()
			s.finishLocked(j, res, nil)
			s.mu.Unlock()
			return
		}
	}
	// Per-cell memoization: jobs without their own cache settings run
	// against the daemon's shared cache.
	if s.cache != nil && req.Opts.Cache == nil && req.Opts.CacheDir == "" {
		req.Opts.Cache = s.cache
	}
	// The daemon's filesystem (a chaos sick disk under olserve -chaos)
	// also carries the job's cell journal.
	if req.Opts.FS == nil {
		req.Opts.FS = s.cfg.FS
	}

	res, err := Execute(ctx, &req)
	if err == nil && memoKey != "" {
		s.memoPut(memoKey, res)
	}

	s.mu.Lock()
	s.finishLocked(j, res, err)
	s.mu.Unlock()
}

// jobMemoizable excludes jobs whose results the cache must not serve:
// manifest runs (they exist to record fresh provenance), streaming and
// sampling runs (the side channel is the point), and anything
// fault-injected — the campaign's oracle must genuinely
// re-attack the simulator, so fault-campaign jobs and sweeps (which
// embed the campaign experiment) always run.
func jobMemoizable(req *JobRequest) bool {
	o := &req.Opts
	return !o.Manifest && !o.StreamTrace && o.Sink == nil && o.Sampler == nil &&
		!o.Fault.Active() &&
		req.Kind != KindFaultCampaign && req.Kind != KindSweep
}

// jobCacheKey is the whole-job cache key: the canonical JSON of the
// request with everything scrubbed that cannot change the result —
// tenant, scheduling (parallelism, retries, timeouts), durability
// (checkpoints) and cache plumbing itself. The engine name stays in the
// key, mirroring the per-cell discipline documented in internal/rcache.
func jobCacheKey(req *JobRequest) string {
	r := *req
	r.Tenant = ""
	r.IdempotencyKey = ""
	o := r.Opts
	o.Parallelism = 0
	o.CheckpointDir, o.Resume = "", false
	o.Retries, o.CellTimeout = 0, 0
	o.CacheDir = ""
	o.Progress, o.Sink, o.Sampler, o.Cache = nil, nil, nil, nil
	r.Opts = o
	b, err := json.Marshal(&r)
	if err != nil {
		return ""
	}
	return "job|v1|" + string(b)
}

// jobMemo is the gob payload of a memoized job: JobResult field by
// field, minus the kernel image — an in-process convenience, far too
// big to store, and not gob-encodable anyway (its backing store keeps
// its fields unexported).
type jobMemo struct {
	Run         *stats.Run
	HostLatency float64
	HostServed  int64
	Verdict     *fault.Verdict
	Manifest    *obs.Manifest
	Tables      []*experiments.Table
	Summary     *experiments.FaultSummary
}

func (s *Local) memoGet(key string) (*JobResult, bool) {
	if key == "" {
		return nil, false
	}
	blob, ok := s.cache.Get(key)
	if !ok {
		return nil, false
	}
	var m jobMemo
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&m); err != nil {
		return nil, false // undecodable = miss; the rerun heals the slot
	}
	return &JobResult{
		Run: m.Run, HostLatency: m.HostLatency, HostServed: m.HostServed,
		Verdict: m.Verdict, Manifest: m.Manifest,
		Tables: m.Tables, Summary: m.Summary,
	}, true
}

func (s *Local) memoPut(key string, res *JobResult) {
	if key == "" || res == nil {
		return
	}
	m := jobMemo{
		Run: res.Run, HostLatency: res.HostLatency, HostServed: res.HostServed,
		Verdict: res.Verdict, Manifest: res.Manifest,
		Tables: res.Tables, Summary: res.Summary,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&m); err != nil {
		return // the cache is an accelerator, not a correctness dependency
	}
	s.cache.Put(key, buf.Bytes())
}

// finishLocked moves a job to its terminal state, notifies watchers
// and closes their channels. Callers hold s.mu.
func (s *Local) finishLocked(j *job, res *JobResult, err error) {
	j.finished = time.Now()
	j.res, j.err = res, err
	switch {
	case err == nil:
		j.state = StateDone
	case errors.Is(err, olerrors.ErrCanceled):
		j.state = StateCanceled
	default:
		j.state = StateFailed
	}
	s.broadcastLocked(j, WatchEvent{Type: "state", State: j.state, Error: WireError(err)})
	for _, ch := range j.watchers {
		close(ch)
	}
	j.watchers = nil
	close(j.doneCh)
}

// broadcastLocked delivers an event to every watcher without blocking:
// a full subscriber buffer drops the event (Watch documents the loss
// contract). Callers hold s.mu.
func (s *Local) broadcastLocked(j *job, ev WatchEvent) {
	for _, ch := range j.watchers {
		select {
		case ch <- ev:
		default:
		}
	}
}

// watchSink relays machine events into the job's watch stream.
type watchSink struct {
	s *Local
	j *job
}

func (w *watchSink) Emit(e obs.Event) {
	w.s.mu.Lock()
	w.s.broadcastLocked(w.j, WatchEvent{Type: "trace", Trace: &e})
	w.s.mu.Unlock()
}

func (w *watchSink) Drop(int64) {}

// lookup fetches a job by ID.
func (s *Local) lookup(id JobID) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("serve: %w %q", ErrUnknownJob, id)
	}
	return j, nil
}

// Status implements Service.
func (s *Local) Status(_ context.Context, id JobID) (JobStatus, error) {
	j, err := s.lookup(id)
	if err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return JobStatus{
		ID: j.id, Kind: j.req.Kind, State: j.state, Tenant: j.req.Tenant,
		Done: j.done, Total: j.total,
		Error: WireError(j.err), Resumable: j.resumable,
		SubmittedAt: j.submitted, StartedAt: j.started, FinishedAt: j.finished,
	}, nil
}

// Result implements Service. In process it returns the job's original
// error object, so errors.Is classification is exact; the HTTP layer
// converts to JobError only at the boundary.
func (s *Local) Result(_ context.Context, id JobID) (*JobResult, error) {
	j, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !j.state.Terminal() {
		return nil, fmt.Errorf("serve: %w: job %s is %s", ErrNotFinished, id, j.state)
	}
	if j.err != nil {
		return nil, j.err
	}
	return j.res, nil
}

// Cancel implements Service.
func (s *Local) Cancel(_ context.Context, id JobID) error {
	j, err := s.lookup(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case j.state.Terminal():
		// Idempotent: canceling a finished job changes nothing.
	case j.state == StateQueued:
		s.finishLocked(j, nil, fmt.Errorf("serve: %w: job canceled while queued", olerrors.ErrCanceled))
	default:
		j.cancel()
	}
	return nil
}

// Watch implements Service.
func (s *Local) Watch(ctx context.Context, id JobID) (<-chan WatchEvent, error) {
	j, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	ch := make(chan WatchEvent, 128)
	s.mu.Lock()
	// The snapshot event means a subscriber never has to race Status:
	// the stream itself says where the job is now.
	snap := WatchEvent{Type: "state", State: j.state, Done: j.done, Total: j.total, Error: WireError(j.err)}
	ch <- snap
	if j.state.Terminal() {
		close(ch)
		s.mu.Unlock()
		return ch, nil
	}
	j.watchers = append(j.watchers, ch)
	s.mu.Unlock()

	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				s.mu.Lock()
				for i, c := range j.watchers {
					if c == ch {
						j.watchers = append(j.watchers[:i], j.watchers[i+1:]...)
						close(ch)
						break
					}
				}
				s.mu.Unlock()
			case <-j.doneCh:
				// finishLocked already closed the channel.
			}
		}()
	}
	return ch, nil
}

// Forget drops a terminal job from the store. The in-process facade
// calls it after collecting a one-shot result so short-lived calls do
// not accumulate; a daemon keeps jobs until restart. Forgetting a
// non-terminal or unknown job is a no-op.
func (s *Local) Forget(id JobID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok && j.state.Terminal() {
		delete(s.jobs, id)
	}
}

// HealthInfo is the service's load snapshot, served by /healthz.
type HealthInfo struct {
	Status     string `json:"status"` // "ok" or "draining"
	Queued     int    `json:"queued"`
	Running    int    `json:"running"`
	Workers    int    `json:"workers"`
	QueueDepth int    `json:"queue_depth"`
	// CacheHits/CacheMisses are the shared result cache's counters;
	// both zero when the daemon runs uncached.
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`
	// CacheDegraded reports the result cache has tripped its disk
	// breaker and now serves memory-only (see internal/rcache).
	CacheDegraded bool `json:"cache_degraded,omitempty"`
}

// Health reports the service's current load.
func (s *Local) Health() HealthInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := HealthInfo{Status: "ok", Workers: s.cfg.Workers, QueueDepth: s.cfg.QueueDepth}
	if s.draining {
		h.Status = "draining"
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		h.CacheHits, h.CacheMisses = cs.Hits, cs.Misses
		h.CacheDegraded = cs.Degraded
	}
	for _, j := range s.jobs {
		switch j.state {
		case StateQueued:
			h.Queued++
		case StateRunning:
			h.Running++
		}
	}
	return h
}

// Drain gracefully shuts the service down: new submissions are
// refused, queued jobs are canceled without starting, and running jobs
// are preempted — their contexts cancel, the runner journals every
// completed cell and aborts the rest, and the jobs finish canceled and
// resumable (when they have a checkpoint directory). Drain returns
// when every worker has exited or ctx expires.
func (s *Local) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
		for _, j := range s.jobs {
			if j.state == StateRunning {
				j.cancel()
			}
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}

// Close drains with no deadline and releases the service's base
// context. It is the test-friendly teardown.
func (s *Local) Close() error {
	err := s.Drain(context.Background())
	s.baseCancel()
	return err
}
