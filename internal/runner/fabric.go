package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"

	"orderlight/internal/fault"
	"orderlight/internal/olerrors"
	"orderlight/internal/stats"
)

// This file is the coordinator side of the distributed sweep fabric: a
// Board hands out contiguous cell ranges of posted jobs to preemptible
// workers under expiring leases, collects per-cell outcomes, and
// reassembles them in declaration order — so a distributed run is
// byte-identical to a local one. The HTTP surface lives in
// internal/serve (/v1/work/lease, /v1/work/complete); the Board is
// transport-agnostic.

// CellOutcome is one cell's wire-serializable result: the same fields
// the progress journal records (journalEntry), which are exactly
// what declaration-order reassembly needs. Kernels and manifests are
// rebuilt coordinator-side.
type CellOutcome struct {
	Index       int            `json:"index"` // position in the job's declared cell list
	Key         string         `json:"key"`
	Run         *stats.Run     `json:"run,omitempty"`
	HostLatency float64        `json:"host_latency,omitempty"`
	HostServed  int64          `json:"host_served,omitempty"`
	Fault       *fault.Verdict `json:"fault,omitempty"`
	Err         string         `json:"error,omitempty"` // non-empty fails the whole job, like a local sweep
}

// Lease is one granted work range. Request is the posting job's
// serialized request, opaque to the Board: workers re-derive the
// identical cell list from it (cell enumeration is deterministic), so
// cells themselves never cross the wire.
type Lease struct {
	Job     string `json:"job"`
	ID      string `json:"lease"`
	Lo      int    `json:"lo"` // first cell index, inclusive
	Hi      int    `json:"hi"` // last cell index, exclusive
	Total   int    `json:"total"`
	Request []byte `json:"request"`
	// HeartbeatMillis is the cadence the worker should call Heartbeat
	// at while executing this lease. Heartbeats extend the lease and
	// drive the board's liveness view; a worker that skips them is
	// merely reclaimed on the full TTL like before.
	HeartbeatMillis int64 `json:"heartbeat_ms,omitempty"`
}

// DefaultLeaseTTL and DefaultChunk are the Board defaults: leases
// short enough that a killed worker's range is re-issued promptly,
// chunks small enough that a sweep spreads across a few workers.
const (
	DefaultLeaseTTL = 30 * time.Second
	DefaultChunk    = 4
)

type leaseState struct {
	lo, hi   int
	worker   string
	deadline time.Time
}

// flapStreak is how many consecutive expired leases mark a worker as
// flapping. A flapping worker still gets work — preemptible workers
// are the fabric's design center — but on short (ttl/4) leases, so a
// crash-looping host cannot pin a range for a full TTL per loop.
const flapStreak = 2

// workerInfo is the board's liveness record for one worker name.
type workerInfo struct {
	lastSeen time.Time
	streak   int // consecutive expired leases; reset by any Complete
	leases   int // currently held
}

// WorkerStatus is one worker's liveness snapshot, served by /healthz
// on fabric coordinators.
type WorkerStatus struct {
	Name     string    `json:"name"`
	LastSeen time.Time `json:"last_seen"`
	Leases   int       `json:"leases"`
	Expiries int       `json:"expired_streak,omitempty"`
	Flapping bool      `json:"flapping,omitempty"`
}

type boardJob struct {
	request  []byte
	total    int
	pending  [][2]int // unleased [lo,hi) ranges, ascending
	leases   map[string]leaseState
	outcomes []*CellOutcome
	done     int
	errMsg   string
	finished bool
	doneCh   chan struct{}
	progress func(done, total int)
}

// Board is the coordinator's work ledger. All methods are safe for
// concurrent use. Expired leases are reclaimed lazily on the next
// Lease call — workers poll, so reclamation needs no timer goroutine.
type Board struct {
	mu      sync.Mutex
	ttl     time.Duration
	chunk   int
	seq     int
	jobs    map[string]*boardJob
	order   []string // FIFO job dispatch order
	now     func() time.Time
	workers map[string]*workerInfo

	// hbGrace, when non-zero, arms heartbeat-driven early reclaim: a
	// lease whose holder has not been heard from (lease, heartbeat or
	// complete) for hbGrace is reclaimed before its TTL deadline.
	hbGrace time.Duration

	// journal, when non-nil, receives every board mutation so a killed
	// coordinator restarts with leases' work intact. See boardjournal.go.
	journal *boardJournal
}

// JobKey is the board's content-addressed job identity: identical
// request bytes always map to the same key. That is what lets a client
// resubmit after a coordinator restart and attach to the replayed
// job's progress instead of starting over.
func JobKey(request []byte) string {
	sum := sha256.Sum256(request)
	return "fj-" + hex.EncodeToString(sum[:8])
}

// NewBoard creates a board. ttl <= 0 uses DefaultLeaseTTL, chunk <= 0
// uses DefaultChunk.
func NewBoard(ttl time.Duration, chunk int) *Board {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	return &Board{
		ttl: ttl, chunk: chunk,
		jobs:    make(map[string]*boardJob),
		workers: make(map[string]*workerInfo),
		now:     time.Now,
	}
}

// EnableHeartbeats arms early lease reclaim: a worker silent for grace
// (no lease poll, heartbeat or completion) loses its leases without
// waiting out the TTL. grace <= 0 means half the lease TTL. Off by
// default so a board driven without heartbeats keeps pure-TTL
// semantics.
func (b *Board) EnableHeartbeats(grace time.Duration) {
	if grace <= 0 {
		grace = b.ttl / 2
	}
	b.mu.Lock()
	b.hbGrace = grace
	b.mu.Unlock()
}

// touchLocked updates a worker's liveness record. Caller holds b.mu.
func (b *Board) touchLocked(worker string, now time.Time) *workerInfo {
	if worker == "" {
		return nil
	}
	w := b.workers[worker]
	if w == nil {
		w = &workerInfo{}
		b.workers[worker] = w
	}
	w.lastSeen = now
	return w
}

// Workers reports every known worker's liveness snapshot, flapping
// workers first, then by name.
func (b *Board) Workers() []WorkerStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]WorkerStatus, 0, len(b.workers))
	for name, w := range b.workers {
		out = append(out, WorkerStatus{
			Name: name, LastSeen: w.lastSeen, Leases: w.leases,
			Expiries: w.streak, Flapping: w.streak >= flapStreak,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Flapping != out[j].Flapping {
			return out[i].Flapping
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Post registers a job of total cells with the board and returns its
// content-addressed key (JobKey of the request bytes). Posting a
// request the board already tracks — typically a resubmission after a
// coordinator restart replayed the job from its journal — attaches to
// the existing job: the caller's progress callback takes over and Wait
// picks up from however many cells are already complete, rather than
// re-running them. progress, when non-nil, is called under no board
// lock ordering guarantees after each newly completed cell.
func (b *Board) Post(request []byte, total int, progress func(done, total int)) (string, error) {
	key := JobKey(request)
	if total <= 0 {
		return "", fmt.Errorf("runner: %w: fabric job %q has no cells", olerrors.ErrInvalidSpec, key)
	}
	b.mu.Lock()
	if j, ok := b.jobs[key]; ok {
		if j.total != total {
			b.mu.Unlock()
			return "", fmt.Errorf("runner: fabric job %q posted with %d cells, board holds %d — cell enumeration is not deterministic across builds?", key, total, j.total)
		}
		j.progress = progress
		done := j.done
		b.mu.Unlock()
		if progress != nil && done > 0 {
			progress(done, total)
		}
		return key, nil
	}
	j := newBoardJob(request, total, b.chunk)
	j.progress = progress
	b.jobs[key] = j
	b.order = append(b.order, key)
	b.appendJournalLocked(boardRecord{Op: "post", Job: key, Total: total, Request: request})
	b.mu.Unlock()
	return key, nil
}

// newBoardJob builds a job record with its full pending list. Shared
// by Post and journal replay.
func newBoardJob(request []byte, total, chunk int) *boardJob {
	j := &boardJob{
		request:  request,
		total:    total,
		leases:   make(map[string]leaseState),
		outcomes: make([]*CellOutcome, total),
		doneCh:   make(chan struct{}),
	}
	for lo := 0; lo < total; lo += chunk {
		hi := lo + chunk
		if hi > total {
			hi = total
		}
		j.pending = append(j.pending, [2]int{lo, hi})
	}
	return j
}

// reclaimLocked returns expired leases' ranges to their jobs' pending
// lists and charges each expiry to its holder's flap streak. With
// heartbeats armed, a lease whose holder has been silent for hbGrace
// is reclaimed early — a SIGKILLed worker's range comes back after the
// grace, not the full TTL. Caller holds b.mu.
func (b *Board) reclaimLocked(now time.Time) {
	for _, j := range b.jobs {
		if j.finished {
			continue
		}
		for id, ls := range j.leases {
			expired := now.After(ls.deadline)
			if !expired && b.hbGrace > 0 {
				if w := b.workers[ls.worker]; w != nil && now.Sub(w.lastSeen) > b.hbGrace {
					expired = true
				}
			}
			if !expired {
				continue
			}
			delete(j.leases, id)
			j.pending = append(j.pending, [2]int{ls.lo, ls.hi})
			if w := b.workers[ls.worker]; w != nil {
				w.streak++
				if w.leases > 0 {
					w.leases--
				}
			}
		}
	}
}

// leaseTTLLocked is the deadline extension a worker earns: the full
// TTL normally, a quarter of it while the worker is flapping. Caller
// holds b.mu.
func (b *Board) leaseTTLLocked(w *workerInfo) time.Duration {
	if w != nil && w.streak >= flapStreak {
		return b.ttl / 4
	}
	return b.ttl
}

// Lease grants the next pending range to a worker, or returns nil when
// no work is available right now (the worker should poll again — a
// range may reappear when a lease expires).
func (b *Board) Lease(worker string) *Lease {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	b.reclaimLocked(now)
	w := b.touchLocked(worker, now)
	for _, id := range b.order {
		j := b.jobs[id]
		if j == nil || j.finished || len(j.pending) == 0 {
			continue
		}
		span := j.pending[0]
		j.pending = j.pending[1:]
		b.seq++
		leaseID := fmt.Sprintf("l%06d", b.seq)
		j.leases[leaseID] = leaseState{lo: span[0], hi: span[1], worker: worker, deadline: now.Add(b.leaseTTLLocked(w))}
		if w != nil {
			w.leases++
		}
		return &Lease{
			Job: id, ID: leaseID, Lo: span[0], Hi: span[1], Total: j.total, Request: j.request,
			HeartbeatMillis: (b.ttl / 4).Milliseconds(),
		}
	}
	return nil
}

// Heartbeat records that worker is still executing a lease, extending
// its deadline (by the full TTL, or TTL/4 while the worker is
// flapping). It returns false when the lease is no longer held — it
// expired and was re-issued, or its job finished — which the worker
// may treat as a hint to abandon the range; finishing anyway is
// harmless, since completions are first-fill-wins.
func (b *Board) Heartbeat(worker, jobID, leaseID string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	// Reclaim first — like Lease — so a beat on a lease that already
	// sat out its deadline honestly answers "lost" instead of quietly
	// resurrecting it.
	b.reclaimLocked(now)
	w := b.touchLocked(worker, now)
	j := b.jobs[jobID]
	if j == nil || j.finished {
		return false
	}
	ls, ok := j.leases[leaseID]
	if !ok || ls.worker != worker {
		return false
	}
	ls.deadline = now.Add(b.leaseTTLLocked(w))
	j.leases[leaseID] = ls
	return true
}

// Complete records a lease's outcomes from worker. Late completions
// of expired (and possibly re-issued) leases are accepted: results are
// deterministic, so duplicate indices carry identical payloads and
// only the first fill counts. An outcome with a non-empty Err fails
// the whole job, mirroring a local sweep's first-error semantics. A
// successful completion clears the worker's flap streak.
func (b *Board) Complete(jobID, leaseID, worker string, outcomes []CellOutcome) error {
	b.mu.Lock()
	w := b.touchLocked(worker, b.now())
	if w != nil {
		w.streak = 0
	}
	j := b.jobs[jobID]
	if j == nil {
		b.mu.Unlock()
		return fmt.Errorf("runner: fabric job %q unknown (completed or forgotten)", jobID)
	}
	if _, held := j.leases[leaseID]; held && w != nil && w.leases > 0 {
		w.leases--
	}
	delete(j.leases, leaseID)
	if j.finished {
		b.mu.Unlock()
		return nil
	}
	for i := range outcomes {
		o := outcomes[i]
		if o.Err != "" {
			b.applyFailureLocked(j, &o)
			b.appendJournalLocked(boardRecord{Op: "cell", Job: jobID, Outcome: &o})
			b.mu.Unlock()
			return nil
		}
		if o.Index < 0 || o.Index >= j.total {
			b.mu.Unlock()
			return fmt.Errorf("runner: fabric job %q: outcome index %d out of range [0,%d)", jobID, o.Index, j.total)
		}
		if j.outcomes[o.Index] != nil {
			continue // duplicate from a re-issued lease
		}
		j.outcomes[o.Index] = &o
		j.done++
		b.appendJournalLocked(boardRecord{Op: "cell", Job: jobID, Outcome: &o})
	}
	progress, done, total := j.progress, j.done, j.total
	if j.done == j.total {
		j.finished = true
		close(j.doneCh)
	}
	b.mu.Unlock()
	if progress != nil {
		progress(done, total)
	}
	return nil
}

// applyFailureLocked marks a job failed by one cell's error outcome.
// Shared by Complete and journal replay. Caller holds b.mu.
func (b *Board) applyFailureLocked(j *boardJob, o *CellOutcome) {
	j.errMsg = fmt.Sprintf("cell %d (%s): %s", o.Index, o.Key, o.Err)
	j.finished = true
	close(j.doneCh)
}

// Wait blocks until the job finishes (all cells complete, or a worker
// reported a cell failure) or ctx is done, then removes the job from
// the board and returns the outcomes in declaration order.
func (b *Board) Wait(ctx context.Context, jobID string) ([]CellOutcome, error) {
	b.mu.Lock()
	j := b.jobs[jobID]
	b.mu.Unlock()
	if j == nil {
		return nil, fmt.Errorf("runner: fabric job %q unknown", jobID)
	}
	select {
	case <-ctx.Done():
		b.Forget(jobID)
		return nil, fmt.Errorf("runner: %w: %v", olerrors.ErrCanceled, ctx.Err())
	case <-j.doneCh:
	}
	b.Forget(jobID)
	if j.errMsg != "" {
		return nil, fmt.Errorf("runner: fabric job %q failed: %s", jobID, j.errMsg)
	}
	out := make([]CellOutcome, j.total)
	for i, o := range j.outcomes {
		out[i] = *o
	}
	return out, nil
}

// Forget drops a job (canceled or collected); outstanding leases for
// it complete as no-ops.
func (b *Board) Forget(jobID string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.jobs[jobID]; !ok {
		return
	}
	delete(b.jobs, jobID)
	for i, id := range b.order {
		if id == jobID {
			b.order = append(b.order[:i], b.order[i+1:]...)
			break
		}
	}
	b.appendJournalLocked(boardRecord{Op: "forget", Job: jobID})
}

// ExecuteLease runs cells[lo:hi] on this engine and maps the results
// onto wire outcomes. A sweep error becomes a single Err outcome for
// the chunk — the coordinator fails the job with it, mirroring local
// first-error semantics. The engine's own checkpoint/journal options
// apply, so a preempted worker restarted on the same -checkpoint-dir
// replays its finished cells instead of re-simulating them.
func (e *Engine) ExecuteLease(ctx context.Context, cells []Cell, lo, hi int) []CellOutcome {
	if lo < 0 || hi > len(cells) || lo >= hi {
		return []CellOutcome{{Index: lo, Err: fmt.Sprintf("lease range [%d,%d) outside cell list of %d", lo, hi, len(cells))}}
	}
	res, err := e.Run(ctx, cells[lo:hi])
	if err != nil {
		return []CellOutcome{{Index: lo, Key: cells[lo].Key, Err: err.Error()}}
	}
	out := make([]CellOutcome, hi-lo)
	for i, r := range res {
		out[i] = CellOutcome{
			Index: lo + i, Key: cells[lo+i].Key,
			Run: r.Run, HostLatency: r.HostLatency, HostServed: r.HostServed,
			Fault: r.Fault,
		}
	}
	return out
}

// ResultFromOutcome reconstructs a full Result from a wire outcome,
// rebuilding the kernel image locally exactly like journal replay —
// assemblers read generation metadata off the kernel, and rebuilding
// is deterministic.
func (e *Engine) ResultFromOutcome(c *Cell, o CellOutcome) (Result, error) {
	if o.Err != "" {
		return Result{}, fmt.Errorf("cell %d (%s): %s", o.Index, o.Key, o.Err)
	}
	k, err := e.buildKernel(c)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Run: o.Run, Kernel: k,
		HostLatency: o.HostLatency, HostServed: o.HostServed,
		Fault: o.Fault,
	}
	if e.manifest {
		res.Manifest = e.newManifest(c, 0)
	}
	return res, nil
}
