package runner

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"orderlight/internal/config"
	"orderlight/internal/fault"
	"orderlight/internal/kernel"
	"orderlight/internal/olerrors"
)

// oneCell returns a single add/OrderLight cell (~600 simulated core
// cycles).
func oneCell(t *testing.T) []Cell {
	t.Helper()
	spec, err := kernel.ByName("add")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Run.Primitive = config.PrimitiveOrderLight
	return []Cell{{Key: "resume/add/orderlight", Cfg: cfg, Spec: spec, Bytes: 8 << 10}}
}

// TestSweepResumeFromJournal crashes a journaled sweep after two cells,
// resumes it, and resumes it again. The crash either cuts the journal
// at a line boundary or tears the third line mid-write; a torn tail
// must be cut before the first resume appends, or the second resume
// reads a corrupt middle line. No cell is simulated twice.
func TestSweepResumeFromJournal(t *testing.T) {
	for _, tc := range []struct {
		name string
		torn bool
	}{{"clean cut", false}, {"torn tail", true}} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			cells := testCells(t)
			ref, err := New(Options{Parallelism: 1}).Run(ctx, cells)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := New(Options{Parallelism: 1, CheckpointDir: dir}).Run(ctx, cells); err != nil {
				t.Fatal(err)
			}
			// Simulate a crash after the first two cells.
			jpath := filepath.Join(dir, "journal.jsonl")
			data, err := os.ReadFile(jpath)
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.SplitAfter(data, []byte("\n"))
			if len(lines) < 4 {
				t.Fatalf("journal has %d lines, want >= 4", len(lines))
			}
			kept := append(append([]byte(nil), lines[0]...), lines[1]...)
			if tc.torn {
				kept = append(kept, lines[2][:len(lines[2])/2]...)
			}
			if err := os.WriteFile(jpath, kept, 0o644); err != nil {
				t.Fatal(err)
			}

			var ran int32
			resumed := testCells(t)
			for i := range resumed {
				resumed[i].hook = func() { atomic.AddInt32(&ran, 1) }
			}
			res, err := New(Options{Parallelism: 1, CheckpointDir: dir, Resume: true}).Run(ctx, resumed)
			if err != nil {
				t.Fatal(err)
			}
			if got := atomic.LoadInt32(&ran); got != int32(len(cells)-2) {
				t.Fatalf("resumed sweep simulated %d cells, want %d (two were journal-complete)", got, len(cells)-2)
			}
			for i := range res {
				if res[i].Run.String() != ref[i].Run.String() {
					t.Errorf("cell %d (%s): resumed result differs from reference:\n%s\nvs\n%s",
						i, cells[i].Key, res[i].Run, ref[i].Run)
				}
			}

			// A second resume replays everything from the journal: nothing runs.
			atomic.StoreInt32(&ran, 0)
			res, err = New(Options{Parallelism: 1, CheckpointDir: dir, Resume: true}).Run(ctx, resumed)
			if err != nil {
				t.Fatal(err)
			}
			if got := atomic.LoadInt32(&ran); got != 0 {
				t.Fatalf("fully journaled sweep still simulated %d cells", got)
			}
			for i := range res {
				if res[i].Run.String() != ref[i].Run.String() {
					t.Errorf("cell %d: journal replay differs from reference", i)
				}
			}
			data, _ = os.ReadFile(jpath)
			if n := bytes.Count(data, []byte("\n")); n != len(cells) {
				t.Fatalf("journal has %d lines for %d cells", n, len(cells))
			}
		})
	}
}

// TestFaultedCellJournalReplay: a faulted cell's oracle verdict travels
// through the journal, so a resumed sweep replays it without simulating
// and reports the same verdict and statistics.
func TestFaultedCellJournalReplay(t *testing.T) {
	ctx := context.Background()
	cells := oneCell(t)
	cells[0].Fault = fault.Spec{Class: fault.ClassDropOrdering, Seed: 7, Rate: 0.5}
	dir := t.TempDir()
	ref, err := New(Options{CheckpointDir: dir}).Run(ctx, cells)
	if err != nil {
		t.Fatal(err)
	}
	if ref[0].Fault == nil {
		t.Fatal("faulted reference cell has no verdict")
	}
	var ran int32
	cells[0].hook = func() { atomic.AddInt32(&ran, 1) }
	res, err := New(Options{CheckpointDir: dir, Resume: true}).Run(ctx, cells)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 0 {
		t.Fatalf("journaled faulted cell simulated %d times on resume", ran)
	}
	if res[0].Fault == nil || *res[0].Fault != *ref[0].Fault {
		t.Fatalf("replayed verdict %+v, want %+v", res[0].Fault, *ref[0].Fault)
	}
	if res[0].Run.String() != ref[0].Run.String() {
		t.Fatalf("replayed faulted stats differ:\n%s\nvs\n%s", res[0].Run, ref[0].Run)
	}
}

func TestCellRetrySucceedsAfterTransientPanics(t *testing.T) {
	cells := oneCell(t)
	var attempts int32
	cells[0].hook = func() {
		if atomic.AddInt32(&attempts, 1) <= 2 {
			panic("transient")
		}
	}
	e := New(Options{CellRetries: 2})
	e.retryBase = time.Millisecond
	res, err := e.Run(context.Background(), cells)
	if err != nil {
		t.Fatalf("retried cell failed: %v", err)
	}
	if got := atomic.LoadInt32(&attempts); got != 3 {
		t.Fatalf("cell ran %d times, want 3", got)
	}
	if !res[0].Run.Correct {
		t.Fatal("retried cell verified incorrect")
	}
}

func TestCellRetriesExhausted(t *testing.T) {
	cells := oneCell(t)
	var attempts int32
	cells[0].hook = func() {
		atomic.AddInt32(&attempts, 1)
		panic("permanent")
	}
	e := New(Options{CellRetries: 1})
	e.retryBase = time.Millisecond
	_, err := e.Run(context.Background(), cells)
	if !errors.Is(err, olerrors.ErrCellPanic) {
		t.Fatalf("exhausted retries error = %v, want ErrCellPanic", err)
	}
	if got := atomic.LoadInt32(&attempts); got != 2 {
		t.Fatalf("cell ran %d times, want 2 (original + 1 retry)", got)
	}
}

func TestNonRetryableFailureRunsOnce(t *testing.T) {
	spec, err := kernel.ByName("add")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	var attempts int32
	cells := []Cell{{
		Key: "bad", Cfg: cfg, Spec: spec, Bytes: 8 << 10, Host: true,
		Fault: fault.Spec{Class: fault.ClassDropOrdering, Seed: 1, Rate: 1},
		hook:  func() { atomic.AddInt32(&attempts, 1) },
	}}
	e := New(Options{CellRetries: 3})
	e.retryBase = time.Millisecond
	_, err = e.Run(context.Background(), cells)
	if !errors.Is(err, olerrors.ErrInvalidSpec) {
		t.Fatalf("invalid cell error = %v, want ErrInvalidSpec", err)
	}
	if got := atomic.LoadInt32(&attempts); got != 1 {
		t.Fatalf("structurally failing cell ran %d times, want 1 (not retryable)", got)
	}
}

func TestCellWatchdogTimeout(t *testing.T) {
	cells := oneCell(t)
	release := make(chan struct{})
	cells[0].hook = func() { <-release }
	defer close(release)
	e := New(Options{CellTimeout: 20 * time.Millisecond})
	e.grace = 30 * time.Millisecond
	start := time.Now()
	_, err := e.Run(context.Background(), cells)
	if !errors.Is(err, olerrors.ErrCellTimeout) {
		t.Fatalf("wedged cell error = %v, want ErrCellTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("watchdog took %v to fire", elapsed)
	}
}

func TestCancelCleanupLeavesConsistentDir(t *testing.T) {
	dir := t.TempDir()
	// Files the runner does not own are neither read nor removed.
	stray := filepath.Join(dir, "deadbeef.ckpt.tmp")
	if err := os.WriteFile(stray, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cells := testCells(t)
	cells[0].hook = func() { cancel() }
	_, err := New(Options{Parallelism: 1, CheckpointDir: dir}).Run(ctx, cells)
	if !errors.Is(err, olerrors.ErrCanceled) {
		t.Fatalf("canceled sweep error = %v, want ErrCanceled", err)
	}
	if got, err := os.ReadFile(stray); err != nil || string(got) != "junk" {
		t.Fatalf("stray file changed by the sweep: %q, %v", got, err)
	}
	// The journal is loadable — consistent, possibly partial.
	if _, err := loadJournal(filepath.Join(dir, "journal.jsonl")); err != nil {
		t.Fatalf("journal unreadable after cancellation: %v", err)
	}
}

func TestResumeOptionValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := New(Options{Resume: true}).Run(ctx, oneCell(t)); !errors.Is(err, olerrors.ErrInvalidSpec) {
		t.Fatalf("Resume without CheckpointDir: %v, want ErrInvalidSpec", err)
	}
}

func TestCellHashStableAndSensitive(t *testing.T) {
	cells := testCells(t)
	a, b := cellHash(&cells[0]), cellHash(&cells[0])
	if a != b {
		t.Fatal("cell hash is not stable")
	}
	seen := map[string]string{}
	for i := range cells {
		h := cellHash(&cells[i])
		if prev, dup := seen[h]; dup {
			t.Fatalf("cells %q and %q collide on hash %s", prev, cells[i].Key, h)
		}
		seen[h] = cells[i].Key
	}
	mutated := cells[0]
	mutated.Bytes++
	if cellHash(&mutated) == a {
		t.Fatal("cell hash ignores the footprint")
	}
}
