package runner

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"orderlight/internal/chaos"
)

// This file is the fabric coordinator's crash journal: every board
// mutation that represents acknowledged work — a job posted, a cell
// outcome recorded, a job collected — is appended to a JSON-lines file
// before the coordinator's answer leaves the process. A SIGKILLed
// coordinator restarted on the same journal replays it and comes back
// with completions intact: workers re-lease only the genuinely
// unfinished ranges, and a client that resubmits the identical request
// attaches to the replayed job (jobs are keyed by request content, see
// JobKey) instead of starting the sweep over.
//
// The write discipline matches the cell progress journal (journal.go):
// one marshaled line per record, a single Write then a Sync, so a crash
// leaves at most one torn trailing line — tolerated on replay. Damage
// anywhere else is a loud error: records after it were acknowledged,
// and silently dropping them would re-run (or worse, re-collect) work.
// If an append fails mid-flight the journal turns itself off rather
// than write past a possibly-torn line; the board keeps serving, it
// just loses restart coverage (see degradedLocked).

// boardRecord is one journal line.
type boardRecord struct {
	Op      string       `json:"op"`                // "post", "cell", "forget"
	Job     string       `json:"job"`               // board job key (JobKey)
	Total   int          `json:"total,omitempty"`   // post: cell count
	Request []byte       `json:"request,omitempty"` // post: serialized request
	Outcome *CellOutcome `json:"outcome,omitempty"` // cell: one completion
}

// boardJournal is the open append handle plus its degrade latch.
type boardJournal struct {
	f    chaos.File
	path string
	logf func(format string, args ...any)
	down bool // first failed append turns journaling off
}

// NewJournaledBoard is NewBoard plus a crash journal at path: existing
// records are replayed into the fresh board (missing file = empty
// journal), pending ranges are rebuilt from the gaps, then the file is
// opened for appending. fsys is the filesystem appends go through
// (nil = the real one; the chaos harness injects its sick disk here —
// replay reads are never faulted, damage is discovered by content).
// logf, when non-nil, receives replay and degrade notices.
func NewJournaledBoard(ttl time.Duration, chunk int, path string, fsys chaos.FS, logf func(format string, args ...any)) (*Board, error) {
	if fsys == nil {
		fsys = chaos.OS
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	b := NewBoard(ttl, chunk)
	replayed, err := b.replayJournal(path)
	if err != nil {
		return nil, err
	}
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runner: board journal: %w", err)
	}
	b.mu.Lock()
	b.rebuildPendingLocked()
	b.journal = &boardJournal{f: f, path: path, logf: logf}
	jobs := len(b.order)
	b.mu.Unlock()
	if replayed > 0 {
		logf("fabric: replayed %d journal record(s) from %s: %d unfinished job(s) restored", replayed, path, jobs)
	}
	return b, nil
}

// replayJournal reads the journal (plain os read — replay happens
// before any chaos matters, and reads are never faulted anyway) and
// applies every record to the empty board. Torn tail tolerated,
// corrupt middle loud. Returns the number of records applied.
func (b *Board) replayJournal(path string) (int, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("runner: board journal: %w", err)
	}
	defer f.Close()

	b.mu.Lock()
	defer b.mu.Unlock()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	line, applied := 0, 0
	var pendingErr error
	for sc.Scan() {
		line++
		if pendingErr != nil {
			return 0, pendingErr
		}
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rec boardRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			pendingErr = fmt.Errorf("runner: board journal %s line %d: %w", path, line, err)
			continue
		}
		if err := b.applyRecordLocked(&rec); err != nil {
			pendingErr = fmt.Errorf("runner: board journal %s line %d: %w", path, line, err)
			continue
		}
		applied++
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("runner: board journal %s: %w", path, err)
	}
	// A torn final line is the footprint of a crash mid-append; the
	// record it held was never acknowledged, so dropping it is correct.
	return applied, nil
}

// applyRecordLocked replays one journal record. Caller holds b.mu.
func (b *Board) applyRecordLocked(rec *boardRecord) error {
	switch rec.Op {
	case "post":
		if rec.Total <= 0 {
			return fmt.Errorf("post record for %q has no cells", rec.Job)
		}
		if _, ok := b.jobs[rec.Job]; ok {
			return fmt.Errorf("job %q posted twice", rec.Job)
		}
		b.jobs[rec.Job] = newBoardJob(rec.Request, rec.Total, b.chunk)
		b.order = append(b.order, rec.Job)
	case "cell":
		j := b.jobs[rec.Job]
		if j == nil {
			return fmt.Errorf("cell record for unposted job %q", rec.Job)
		}
		o := rec.Outcome
		if o == nil {
			return fmt.Errorf("cell record for %q has no outcome", rec.Job)
		}
		if j.finished {
			return nil // late duplicate journaled after a failure record
		}
		if o.Err != "" {
			b.applyFailureLocked(j, o)
			return nil
		}
		if o.Index < 0 || o.Index >= j.total {
			return fmt.Errorf("outcome index %d out of range [0,%d)", o.Index, j.total)
		}
		if j.outcomes[o.Index] != nil {
			return nil
		}
		j.outcomes[o.Index] = o
		j.done++
		if j.done == j.total {
			j.finished = true
			close(j.doneCh)
		}
	case "forget":
		if _, ok := b.jobs[rec.Job]; !ok {
			return nil
		}
		delete(b.jobs, rec.Job)
		for i, id := range b.order {
			if id == rec.Job {
				b.order = append(b.order[:i], b.order[i+1:]...)
				break
			}
		}
	default:
		return fmt.Errorf("unknown op %q", rec.Op)
	}
	return nil
}

// rebuildPendingLocked recomputes every unfinished job's pending list
// from its missing outcomes, chunked like fresh posts. Called once
// after replay — no leases survive a restart, so everything not
// completed is pending. Caller holds b.mu.
func (b *Board) rebuildPendingLocked() {
	for _, j := range b.jobs {
		if j.finished {
			continue
		}
		j.pending = j.pending[:0]
		for lo := 0; lo < j.total; {
			if j.outcomes[lo] != nil {
				lo++
				continue
			}
			hi := lo
			for hi < j.total && hi-lo < b.chunk && j.outcomes[hi] == nil {
				hi++
			}
			j.pending = append(j.pending, [2]int{lo, hi})
			lo = hi
		}
	}
}

// appendJournalLocked writes one record, degrading the journal on the
// first failure: appending past a possibly-torn line would turn the
// replay's tolerable torn tail into a loud corrupt middle. The board
// keeps operating without the journal — a subsequent coordinator
// restart loses the un-journaled progress, never the running job.
// Caller holds b.mu.
func (b *Board) appendJournalLocked(rec boardRecord) {
	jn := b.journal
	if jn == nil || jn.down {
		return
	}
	line, err := json.Marshal(&rec)
	if err != nil {
		jn.down = true
		jn.logf("fabric: board journal disabled: encode: %v", err)
		return
	}
	line = append(line, '\n')
	_, err = jn.f.Write(line)
	if err == nil {
		err = jn.f.Sync()
	}
	if err != nil {
		jn.down = true
		jn.logf("fabric: board journal %s disabled after write failure (restart coverage lost, job unaffected): %v", jn.path, err)
	}
}

// JournalDegraded reports whether the board's crash journal has shut
// itself off after a write failure.
func (b *Board) JournalDegraded() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.journal != nil && b.journal.down
}
