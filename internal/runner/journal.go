package runner

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"orderlight/internal/chaos"
	"orderlight/internal/fault"
	"orderlight/internal/stats"
)

// journalName is the progress journal's file name inside CheckpointDir.
const journalName = "journal.jsonl"

// journalEntry records one completed experiment cell: its identity and
// everything needed to reconstruct the cell's Result without
// re-simulating. One JSON object per line.
type journalEntry struct {
	Key         string         // human-readable cell key
	Hash        string         // cell identity hash (the resume key)
	Run         *stats.Run     // the cell's statistics
	HostLatency float64        // mean host-load latency in core cycles
	HostServed  int64          // host loads served
	Fault       *fault.Verdict // oracle verdict; nil when unfaulted
}

// cellJournal is an append-only progress log for a sweep. Each Append
// is a single write followed by a sync, so a crash leaves at most one
// partial trailing line — which loadJournal tolerates. Append is safe
// for concurrent use by the runner's worker pool, and O_APPEND keeps
// the lines of several processes sharing one file intact.
type cellJournal struct {
	mu sync.Mutex
	f  chaos.File
}

// openJournal opens (creating if needed) a journal for appending
// through fsys, the seam the chaos harness uses to make appends fail;
// nil means the real filesystem. A partial last line left by an earlier
// run is cut off first: appended after it, the fragment would become a
// corrupt middle line and fail the next resume.
func openJournal(path string, fsys chaos.FS) (*cellJournal, error) {
	if fsys == nil {
		fsys = chaos.OS
	}
	if err := trimTornTail(path); err != nil {
		return nil, fmt.Errorf("runner: journal: %w", err)
	}
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runner: journal: %w", err)
	}
	return &cellJournal{f: f}, nil
}

// trimTornTail cuts the journal at path back to its last complete line.
// Like the journal's reads it bypasses the chaos seam: it only removes
// bytes readJournal already skips.
func trimTornTail(path string) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if n := completeLen(data); n < len(data) {
		return os.Truncate(path, int64(n))
	}
	return nil
}

// completeLen is the length of data's complete lines: everything up to
// and including the last newline.
func completeLen(data []byte) int { return bytes.LastIndexByte(data, '\n') + 1 }

// Append records one completed cell. The entry is marshaled to a single
// line, written in one call, and synced before Append returns, so an
// acknowledged entry survives a crash.
func (j *cellJournal) Append(e journalEntry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("runner: journal: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("runner: journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("runner: journal: %w", err)
	}
	return nil
}

// Close closes the journal file.
func (j *cellJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// loadJournal reads a journal into a map keyed by cell hash. A missing
// file is an empty journal.
func loadJournal(path string) (map[string]journalEntry, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return map[string]journalEntry{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("runner: journal: %w", err)
	}
	defer f.Close()
	return readJournal(f, path)
}

// readJournal decodes journal lines from r; name labels errors. A
// partial trailing line — the footprint of a crash mid-append — is
// skipped; a malformed or hashless line anywhere else is an error (the
// journal is corrupt, not merely torn).
func readJournal(r io.Reader, name string) (map[string]journalEntry, error) {
	out := make(map[string]journalEntry)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	line := 0
	var pendingErr error
	for sc.Scan() {
		line++
		// A decode failure is only forgivable on the final line (a torn
		// append); remember it and fail if more lines follow.
		if pendingErr != nil {
			return nil, pendingErr
		}
		var e journalEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			pendingErr = fmt.Errorf("runner: journal %s line %d: %w", name, line, err)
			continue
		}
		if e.Hash == "" {
			pendingErr = fmt.Errorf("runner: journal %s line %d: entry has no cell hash", name, line)
			continue
		}
		out[e.Hash] = e
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("runner: journal %s: %w", name, err)
	}
	return out, nil
}
