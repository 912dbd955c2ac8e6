package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"orderlight/internal/config"
	"orderlight/internal/runner"
)

// TestResumeIgnoresMidCellCheckpoints resumes an experiment from a
// checkpoint directory an older build could have left: a journal that
// covers only some cells, plus a stray mid-cell snapshot and its temp
// file. The resume simulates exactly the cells missing from the
// journal, renders byte-identical tables and manifests, and leaves the stray files
// as they were.
func TestResumeIgnoresMidCellCheckpoints(t *testing.T) {
	ctx := context.Background()
	cfg := config.Default()
	dir := t.TempDir()

	full := runner.New(runner.Options{CheckpointDir: dir, Manifest: true})
	ref, err := RunEngine(ctx, full, "fig5", cfg, cacheTestScale)
	if err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(dir, "journal.jsonl")
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if int64(len(lines)) != full.Simulated() || len(lines) < 3 {
		t.Fatalf("journal holds %d lines for %d simulated cells", len(lines), full.Simulated())
	}
	const kept = 2
	if err := os.WriteFile(jpath, bytes.Join(lines[:kept], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	strays := map[string][]byte{
		filepath.Join(dir, "x.ckpt"):     []byte("a mid-cell snapshot from an older build"),
		filepath.Join(dir, "x.ckpt.tmp"): []byte("half-written"),
	}
	for p, b := range strays {
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	resumed := runner.New(runner.Options{CheckpointDir: dir, Resume: true, Manifest: true})
	got, err := RunEngine(ctx, resumed, "fig5", cfg, cacheTestScale)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(lines) - kept); resumed.Simulated() != want {
		t.Fatalf("resume simulated %d cells, want the %d missing from the journal", resumed.Simulated(), want)
	}
	if renderAll(got) != renderAll(ref) {
		t.Fatalf("resumed output differs:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", renderAll(ref), renderAll(got))
	}
	for p, want := range strays {
		if b, err := os.ReadFile(p); err != nil || !bytes.Equal(b, want) {
			t.Fatalf("%s changed by the resume: %q, %v", filepath.Base(p), b, err)
		}
	}
}
