package experiments

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"orderlight/internal/config"
	"orderlight/internal/rcache"
	"orderlight/internal/runner"
)

var cacheTestScale = Scale{BytesPerChannel: 16 << 10}

// renderAll is the results_all.md shape for one experiment: table +
// manifests, the exact bytes `make results` commits.
func renderAll(t *Table) string {
	return t.Markdown() + t.ManifestMarkdown()
}

// TestWarmCacheRerunExecutesZeroCells is the tentpole acceptance gate:
// a warm-cache rerun of a full experiment simulates zero cells and
// renders byte-identical output (table and manifests).
func TestWarmCacheRerunExecutesZeroCells(t *testing.T) {
	cfg := config.Default()
	cache, err := rcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}

	cold := runner.New(runner.Options{ResultCache: cache, Manifest: true})
	coldTab, err := RunEngine(context.Background(), cold, "fig5", cfg, cacheTestScale)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Simulated() == 0 {
		t.Fatal("cold run simulated zero cells — the test proves nothing")
	}
	if s := cache.Stats(); s.Stores == 0 {
		t.Fatalf("cold run stored nothing: %+v", s)
	}

	warm := runner.New(runner.Options{ResultCache: cache, Manifest: true})
	warmTab, err := RunEngine(context.Background(), warm, "fig5", cfg, cacheTestScale)
	if err != nil {
		t.Fatal(err)
	}
	if n := warm.Simulated(); n != 0 {
		t.Fatalf("warm rerun simulated %d cells, want 0", n)
	}
	if got, want := renderAll(warmTab), renderAll(coldTab); got != want {
		t.Fatalf("warm output differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", want, got)
	}
	// Provenance: warm manifests carry the hit marker, cold ones the key.
	for _, m := range warmTab.Manifests {
		if !m.CacheHit || m.CacheKey == "" {
			t.Fatalf("warm manifest missing cache provenance: %+v", m)
		}
	}
	for _, m := range coldTab.Manifests {
		if m.CacheHit || m.CacheKey == "" {
			t.Fatalf("cold manifest has wrong cache provenance: %+v", m)
		}
	}
}

// TestWarmCacheSurvivesReopen reruns against a fresh Cache over the
// same directory — the cross-process shape (olbench -cache-dir twice).
func TestWarmCacheSurvivesReopen(t *testing.T) {
	cfg := config.Default()
	dir := t.TempDir()
	c1, err := rcache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cold := runner.New(runner.Options{ResultCache: c1})
	coldTab, err := RunEngine(context.Background(), cold, "fig10a", cfg, cacheTestScale)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := rcache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	warm := runner.New(runner.Options{ResultCache: c2})
	warmTab, err := RunEngine(context.Background(), warm, "fig10a", cfg, cacheTestScale)
	if err != nil {
		t.Fatal(err)
	}
	if n := warm.Simulated(); n != 0 {
		t.Fatalf("reopened warm rerun simulated %d cells, want 0", n)
	}
	if warmTab.Markdown() != coldTab.Markdown() {
		t.Fatal("reopened warm output differs from cold")
	}
}

// TestCellCacheEngineParity is the parity gate the cache key design
// leans on: the engine name is part of the key (per the store's
// contract), but results themselves must be engine-independent — the
// skip and dense engines produce identical cached tables.
func TestCellCacheEngineParity(t *testing.T) {
	cfg := config.Default()
	type variant struct {
		name string
		opts runner.Options
	}
	variants := []variant{
		{"skip", runner.Options{}},
		{"dense", runner.Options{DenseEngine: true}},
	}
	var ref *Table
	for _, v := range variants {
		o := v.opts
		cache, err := rcache.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		o.ResultCache = cache
		tab, err := RunEngine(context.Background(), runner.New(o), "fig5", cfg, cacheTestScale)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if ref == nil {
			ref = tab
			continue
		}
		if tab.Markdown() != ref.Markdown() {
			t.Fatalf("%s table differs from %s:\n%s\nvs\n%s", v.name, variants[0].name, tab.Markdown(), ref.Markdown())
		}
		if !reflect.DeepEqual(tab.Rows, ref.Rows) {
			t.Fatalf("%s rows differ from %s", v.name, variants[0].name)
		}
	}
}

// TestCorruptCacheFallsBackToRecompute damages every blob a cold run
// wrote (truncation and bit flips) and reruns: the engine must
// re-simulate every cell and still produce byte-identical output — a
// damaged cache costs time, never correctness.
func TestCorruptCacheFallsBackToRecompute(t *testing.T) {
	cfg := config.Default()
	dir := t.TempDir()
	cache, err := rcache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cold := runner.New(runner.Options{ResultCache: cache})
	coldTab, err := RunEngine(context.Background(), cold, "fig5", cfg, cacheTestScale)
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := filepath.Glob(filepath.Join(dir, "*.res"))
	if err != nil || len(blobs) == 0 {
		t.Fatalf("no blobs written: %v %v", blobs, err)
	}
	for i, p := range blobs {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			data = data[:len(data)/2] // truncate
		} else {
			data[len(data)-1] ^= 0x01 // bit flip
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := rcache.Open(dir, 0) // fresh memory front; disk is damaged
	if err != nil {
		t.Fatal(err)
	}
	warm := runner.New(runner.Options{ResultCache: fresh})
	warmTab, err := RunEngine(context.Background(), warm, "fig5", cfg, cacheTestScale)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Simulated() != cold.Simulated() {
		t.Fatalf("rerun over damaged cache simulated %d cells, cold run %d", warm.Simulated(), cold.Simulated())
	}
	if warmTab.Markdown() != coldTab.Markdown() {
		t.Fatal("rerun over damaged cache produced different output")
	}
	if s := fresh.Stats(); s.Corrupt != int64(len(blobs)) {
		t.Fatalf("Corrupt = %d, want %d", s.Corrupt, len(blobs))
	}
	// The recompute healed the slots: a third run is all hits again.
	healed, err := rcache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	again := runner.New(runner.Options{ResultCache: healed})
	if _, err := RunEngine(context.Background(), again, "fig5", cfg, cacheTestScale); err != nil {
		t.Fatal(err)
	}
	if n := again.Simulated(); n != 0 {
		t.Fatalf("healed rerun simulated %d cells, want 0", n)
	}
}

// TestFaultCampaignNeverCached: fault-injected cells bypass the cache
// in both directions, so campaign reruns genuinely re-attack the
// simulator.
func TestFaultCampaignNeverCached(t *testing.T) {
	cfg := config.Default()
	cache, err := rcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := runner.New(runner.Options{ResultCache: cache})
	if _, _, err := FaultCampaignEngine(context.Background(), eng, cfg, Scale{BytesPerChannel: 4 << 10}); err != nil {
		t.Fatal(err)
	}
	first := eng.Simulated()
	if first == 0 {
		t.Fatal("campaign simulated nothing")
	}
	eng2 := runner.New(runner.Options{ResultCache: cache})
	if _, _, err := FaultCampaignEngine(context.Background(), eng2, cfg, Scale{BytesPerChannel: 4 << 10}); err != nil {
		t.Fatal(err)
	}
	// The campaign mixes faulted cells (never cached) with unfaulted
	// baseline cells (cached): the rerun must re-execute every faulted
	// cell.
	if eng2.Simulated() == 0 {
		t.Fatal("faulted cells were served from the cache")
	}
	if eng2.Simulated() > first {
		t.Fatalf("rerun simulated more (%d) than the cold run (%d)", eng2.Simulated(), first)
	}
}
