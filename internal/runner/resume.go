package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"orderlight/internal/olerrors"
	"orderlight/internal/sim"
)

// cellHash renders a cell's full identity — everything that affects its
// result — into a short stable key for journal entries. %#v over
// value-typed structs is deterministic.
func cellHash(c *Cell) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%#v|%#v|%d|%t|%#v|%#v",
		c.Key, c.Cfg, c.Spec, c.Bytes, c.Host, c.Traffic, c.Fault)))
	return hex.EncodeToString(sum[:8])
}

// cellID memoizes a cell's hash. Rendering the hash formats the whole
// config and spec, so it is computed at most once per cell, and only
// when the resume map, the journal or the retry backoff reads it.
type cellID struct {
	cell *Cell
	sum  string // cellHash(cell), once computed
}

func (id *cellID) hash() string {
	if id.sum == "" {
		id.sum = cellHash(id.cell)
	}
	return id.sum
}

// journaled looks the cell up in a resumed sweep's completed cells,
// hashing it only when there is a map to look in.
func (id *cellID) journaled(done map[string]journalEntry) (journalEntry, bool) {
	if done == nil {
		return journalEntry{}, false
	}
	ent, ok := done[id.hash()]
	return ent, ok
}

// replayJournal reconstructs a journal-completed cell's Result without
// re-simulating. The kernel image is rebuilt (cached builds make this
// cheap) because results carry generation metadata; the manifest, when
// requested, is restamped with zero wall time — the cell did not run.
func (e *Engine) replayJournal(c *Cell, ent journalEntry) (Result, error) {
	k, err := e.buildKernel(c)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Run: ent.Run, Kernel: k,
		HostLatency: ent.HostLatency, HostServed: ent.HostServed,
		Fault: ent.Fault,
	}
	if e.manifest {
		res.Manifest = e.newManifest(c, 0)
	}
	return res, nil
}

// retryable reports whether a cell failure is worth retrying: recovered
// panics, simulation deadline overruns and watchdog timeouts. Structural
// failures (invalid specs, journal damage, cancellation) are not — they
// would fail identically again.
func retryable(err error) bool {
	return errors.Is(err, olerrors.ErrCellPanic) ||
		errors.Is(err, sim.ErrDeadline) ||
		errors.Is(err, olerrors.ErrCellTimeout)
}

// backoff sleeps before retry attempt+1: exponential in the attempt with
// deterministic jitter derived from the cell hash, so concurrent
// retrying cells decorrelate without nondeterministic randomness. The
// sleep is cut short by context cancellation.
func (e *Engine) backoff(ctx context.Context, hash string, attempt int) error {
	base := e.retryBase
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	d := base << uint(attempt)
	var seed uint64
	for _, b := range []byte(hash) {
		seed = seed*131 + uint64(b)
	}
	seed += uint64(attempt) * 0x9e37_79b9_7f4a_7c15
	d += time.Duration(seed % uint64(d/2+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return fmt.Errorf("runner: %w: %v", olerrors.ErrCanceled, ctx.Err())
	case <-t.C:
		return nil
	}
}

// journalAppend records a completed cell, degrading on failure: the
// first failed append disables journaling for the rest of the engine's
// life, but the cell's result stands.
// Appending past a torn write would turn the journal's tolerable torn
// tail into a loud corrupt middle on the next resume, so once one
// append fails none may follow it.
func (e *Engine) journalAppend(journal *cellJournal, ent journalEntry) {
	if e.journalDown.Load() {
		return
	}
	if jerr := journal.Append(ent); jerr != nil {
		e.journalDown.Store(true)
	}
}

// runCellRetry drives one cell through the watchdog and the retry loop,
// and journals the completed result. Retries rerun the cell from
// scratch after an exponential backoff.
func (e *Engine) runCellRetry(ctx context.Context, id *cellID, journal *cellJournal) (Result, error) {
	c := id.cell
	cached := e.cacheArmed() && cacheableCell(c)
	if cached {
		if res, ok, err := e.lookupCache(c); err != nil {
			return Result{}, err
		} else if ok {
			if journal != nil {
				// Journal the served cell like any completed one, so a
				// later resume of this sweep replays it even without the
				// cache directory.
				e.journalAppend(journal, journalEntry{
					Key: c.Key, Hash: id.hash(), Run: res.Run,
					HostLatency: res.HostLatency, HostServed: res.HostServed,
				})
			}
			return res, nil
		}
	}
	for attempt := 0; ; attempt++ {
		res, err := e.runCellGuarded(ctx, c)
		if err == nil {
			if cached {
				e.storeCache(c, res)
			}
			if res.Manifest != nil && cached {
				res.Manifest.CacheKey = e.cellCacheKey(c)
			}
			if journal != nil {
				e.journalAppend(journal, journalEntry{
					Key: c.Key, Hash: id.hash(), Run: res.Run,
					HostLatency: res.HostLatency, HostServed: res.HostServed,
					Fault: res.Fault,
				})
			}
			return res, nil
		}
		if attempt >= e.retries || !retryable(err) {
			return Result{}, err
		}
		if serr := e.backoff(ctx, id.hash(), attempt); serr != nil {
			return Result{}, serr
		}
	}
}

// abandonGrace is how long a stopped cell gets to notice its abort flag
// before the watchdog abandons its goroutine. The abort poll runs every
// abortPollCycles of simulated time, so anything still running after the
// grace period is wedged inside a single tick, not merely slow.
const abandonGrace = 10 * time.Second

// runCellGuarded runs one cell under the per-cell watchdog and the
// context: either firing sets the machine's cooperative abort flag and
// waits a grace period for the cell to unwind. A cell that ignores the
// flag is abandoned — its goroutine may leak, but the sweep reports a
// typed error instead of hanging. Results are read only after the cell
// goroutine signals completion, so an abandoned cell can never race the
// sweep's result slots.
func (e *Engine) runCellGuarded(ctx context.Context, c *Cell) (Result, error) {
	if e.cellTO <= 0 && ctx.Done() == nil {
		return e.runCell(c, nil)
	}
	var stop atomic.Bool
	type outcome struct {
		res Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := e.runCell(c, &stop)
		done <- outcome{res, err}
	}()

	var timeout <-chan time.Time
	if e.cellTO > 0 {
		t := time.NewTimer(e.cellTO)
		defer t.Stop()
		timeout = t.C
	}
	grace := e.grace
	if grace <= 0 {
		grace = abandonGrace
	}

	var shape func(outcome) (Result, error)
	select {
	case o := <-done:
		return o.res, o.err
	case <-ctx.Done():
		stop.Store(true)
		shape = func(o outcome) (Result, error) {
			if o.err != nil && errors.Is(o.err, olerrors.ErrAborted) {
				return Result{}, fmt.Errorf("runner: %w: %v", olerrors.ErrCanceled, ctx.Err())
			}
			return o.res, o.err
		}
	case <-timeout:
		stop.Store(true)
		shape = func(o outcome) (Result, error) {
			if o.err != nil && errors.Is(o.err, olerrors.ErrAborted) {
				return Result{}, fmt.Errorf("runner: %w: cell %q exceeded %v", olerrors.ErrCellTimeout, c.Key, e.cellTO)
			}
			// The cell finished (or failed on its own) at the wire;
			// keep the genuine outcome.
			return o.res, o.err
		}
	}

	g := time.NewTimer(grace)
	defer g.Stop()
	select {
	case o := <-done:
		return shape(o)
	case <-g.C:
		if ctx.Err() != nil {
			return Result{}, fmt.Errorf("runner: %w: %v (cell %q ignored its abort flag; goroutine abandoned)",
				olerrors.ErrCanceled, ctx.Err(), c.Key)
		}
		return Result{}, fmt.Errorf("runner: %w: cell %q exceeded %v and ignored its abort flag; goroutine abandoned",
			olerrors.ErrCellTimeout, c.Key, e.cellTO)
	}
}
