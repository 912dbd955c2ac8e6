package runner

import (
	"context"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"

	"orderlight/internal/config"
	"orderlight/internal/fault"
	"orderlight/internal/gpu"
	"orderlight/internal/kernel"
	"orderlight/internal/obs"
	"orderlight/internal/olerrors"
	"orderlight/internal/rcache"
	"orderlight/internal/stats"
	"orderlight/internal/twin"
)

// twinTestPredictor calibrates one small artifact over the shared test
// grid (copy/add under fence and OrderLight, anchored around the
// 8 KiB footprint testCells uses) and memoizes it — calibration runs
// the cycle engine, so every test sharing it keeps the suite fast.
var (
	twinTestOnce sync.Once
	twinTestPred *twin.Predictor
	twinTestErr  error
)

func testTwinPredictor(t *testing.T) *twin.Predictor {
	t.Helper()
	twinTestOnce.Do(func() {
		cfg := testConfig()
		var specs []kernel.Spec
		for _, name := range []string{"copy", "add"} {
			spec, err := kernel.ByName(name)
			if err != nil {
				twinTestErr = err
				return
			}
			specs = append(specs, spec)
		}
		run := func(ctx context.Context, cfg config.Config, spec kernel.Spec, bytes int64) (*stats.Run, error) {
			k, err := kernel.Build(cfg, spec, bytes)
			if err != nil {
				return nil, err
			}
			m, err := gpu.NewMachine(cfg, k.Store, k.Programs)
			if err != nil {
				return nil, err
			}
			return m.Run()
		}
		art, err := twin.Calibrate(context.Background(), cfg, run, twin.Options{
			Anchors:    []int64{4 << 10, 8 << 10, 16 << 10},
			TSBytes:    []int{cfg.PIM.TSBytes},
			Primitives: []config.Primitive{config.PrimitiveFence, config.PrimitiveOrderLight},
			Specs:      specs,
		})
		if err != nil {
			twinTestErr = err
			return
		}
		twinTestPred = twin.NewPredictor(art)
	})
	if twinTestErr != nil {
		t.Fatalf("test calibration failed: %v", twinTestErr)
	}
	return twinTestPred
}

// TestTwinEngineGuards pins every twin-engine option conflict to
// ErrInvalidSpec with a message that names what to remove, matching the
// standard the cycle-engine guards set.
func TestTwinEngineGuards(t *testing.T) {
	pred := testTwinPredictor(t)
	tests := []struct {
		name string
		opts Options
		want string
	}{
		{
			name: "dense conflict",
			opts: Options{TwinEngine: true, Twin: pred, DenseEngine: true},
			want: "-engine=twin|dense|skip",
		},
		{
			name: "trace sink",
			opts: Options{TwinEngine: true, Twin: pred, TraceSink: obs.NewPerfettoSink(io.Discard)},
			want: "no events",
		},
		{
			name: "sampler",
			opts: Options{TwinEngine: true, Twin: pred, Sampler: stats.NewSampler(100)},
			want: "no time-series",
		},
		{
			name: "checkpoints",
			opts: Options{TwinEngine: true, Twin: pred, CheckpointDir: t.TempDir()},
			want: "checkpoints journal cycle-engine progress",
		},
		{
			name: "nil calibration",
			opts: Options{TwinEngine: true},
			want: "TwinEngine needs a calibration",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.opts).Run(context.Background(), testCells(t))
			if err == nil {
				t.Fatal("conflicting twin options succeeded")
			}
			if !errors.Is(err, olerrors.ErrInvalidSpec) {
				t.Errorf("error %v is not classified as ErrInvalidSpec", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestTwinEngineAnswersGrid runs the shared test grid on the twin and
// checks the contract: zero cells simulated, exact command counts
// (identical to the cycle engine's), and a manifest that declares the
// answer approximate — engine "twin", the calibration hash, a recorded
// error bound, and no Verified claim.
func TestTwinEngineAnswersGrid(t *testing.T) {
	pred := testTwinPredictor(t)
	cells := testCells(t)

	cyc, err := New(Options{}).Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Options{TwinEngine: true, Twin: pred, Manifest: true})
	res, err := eng.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.Simulated(); n != 0 {
		t.Errorf("twin run simulated %d cells, want 0", n)
	}
	for i := range cells {
		if res[i].Run.PIMCommands != cyc[i].Run.PIMCommands {
			t.Errorf("cell %s: twin PIMCommands %d != cycle %d (counts must be exact)",
				cells[i].Key, res[i].Run.PIMCommands, cyc[i].Run.PIMCommands)
		}
		if res[i].Run.Verified {
			t.Errorf("cell %s: twin answer claims functional verification", cells[i].Key)
		}
		m := res[i].Manifest
		if m == nil {
			t.Fatalf("cell %s: no manifest", cells[i].Key)
		}
		if m.Engine != "twin" {
			t.Errorf("cell %s: manifest engine %q, want twin", cells[i].Key, m.Engine)
		}
		if m.CalibrationHash != pred.Hash() {
			t.Errorf("cell %s: manifest calibration %q, want %q", cells[i].Key, m.CalibrationHash, pred.Hash())
		}
	}
}

// TestTwinEscalation pins the escalation contract: a cell the twin
// declines fails the sweep with twin.ErrOutOfConfidence by default, and
// with TwinEscalate it falls through to the skip-ahead cycle engine
// with a byte-identical result (same stats, same manifest engine name).
func TestTwinEscalation(t *testing.T) {
	pred := testTwinPredictor(t)
	cells := testCells(t)
	// 32 KiB/channel is outside the test calibration's anchored range,
	// so the twin must decline this cell.
	cells[1].Bytes = 32 << 10

	_, err := New(Options{TwinEngine: true, Twin: pred}).Run(context.Background(), cells)
	if !errors.Is(err, twin.ErrOutOfConfidence) {
		t.Fatalf("out-of-range cell returned %v, want twin.ErrOutOfConfidence", err)
	}
	var ce *CellError
	if !errors.As(err, &ce) || ce.Index != 1 {
		t.Fatalf("error %v does not name cell 1", err)
	}

	direct, err := New(Options{Manifest: true}).Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	esc, err := New(Options{TwinEngine: true, Twin: pred, TwinEscalate: true, Manifest: true}).
		Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if esc[1].Run.String() != direct[1].Run.String() {
		t.Errorf("escalated cell differs from direct cycle-engine run:\n%s\nvs\n%s",
			esc[1].Run, direct[1].Run)
	}
	if got := esc[1].Manifest.Engine; got != "skip" {
		t.Errorf("escalated cell's manifest engine %q, want skip", got)
	}
	if got := esc[0].Manifest.Engine; got != "twin" {
		t.Errorf("in-confidence cell's manifest engine %q, want twin", got)
	}
}

// TestTwinCellDeclines pins the runner-level confidence guards: cells
// whose shape the model cannot vouch for — host baselines, concurrent
// traffic, armed fault plans — decline with twin.ErrOutOfConfidence
// before the predictor is even consulted.
func TestTwinCellDeclines(t *testing.T) {
	pred := testTwinPredictor(t)
	tests := []struct {
		name   string
		mutate func(*Cell)
	}{
		{"host cell", func(c *Cell) { c.Host = true }},
		{"host traffic", func(c *Cell) { c.Traffic = gpu.HostTraffic{PerChannel: 4, EveryN: 8} }},
		{"fault plan", func(c *Cell) { c.Fault = fault.Spec{Class: fault.ClassDropOrdering, Rate: 1, Seed: 1} }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cells := testCells(t)
			tc.mutate(&cells[0])
			_, err := New(Options{TwinEngine: true, Twin: pred}).Run(context.Background(), cells)
			if !errors.Is(err, twin.ErrOutOfConfidence) {
				t.Errorf("got %v, want twin.ErrOutOfConfidence", err)
			}
		})
	}
}

// TestTwinCacheHitManifest checks a warm twin answer's provenance: the
// replayed manifest still says engine "twin", carries the calibration
// hash, and marks itself a cache hit under the twin-domain key.
func TestTwinCacheHitManifest(t *testing.T) {
	pred := testTwinPredictor(t)
	cells := testCells(t)
	cache, err := rcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{TwinEngine: true, Twin: pred, ResultCache: cache}).
		Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	warm, err := New(Options{TwinEngine: true, Twin: pred, ResultCache: cache, Manifest: true}).
		Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		m := warm[i].Manifest
		if m == nil {
			t.Fatalf("cell %s: no manifest", cells[i].Key)
		}
		if !m.CacheHit || m.Engine != "twin" || m.CalibrationHash != pred.Hash() {
			t.Errorf("cell %s: warm manifest {hit:%t engine:%q cal:%q}, want twin cache hit",
				cells[i].Key, m.CacheHit, m.Engine, m.CalibrationHash)
		}
	}
}

// TestTwinCacheDomainSeparation holds the cache-poisoning line: twin
// answers live in their own "twin|" key domain, so a cycle-engine run
// sharing the same result cache can never be served an approximation,
// and a warm twin rerun serves its own entries.
func TestTwinCacheDomainSeparation(t *testing.T) {
	pred := testTwinPredictor(t)
	cells := testCells(t)
	cache, err := rcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}

	ground, err := New(Options{}).Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}

	// Populate the cache with twin answers first.
	tw := New(Options{TwinEngine: true, Twin: pred, ResultCache: cache})
	first, err := tw.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}

	// A cycle run against the twin-warmed cache must simulate every cell
	// and reproduce the ground truth — no twin entry may answer it.
	cyc := New(Options{ResultCache: cache})
	res, err := cyc.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if n := cyc.Simulated(); n != int64(len(cells)) {
		t.Errorf("cycle run over twin-warmed cache simulated %d cells, want %d", n, len(cells))
	}
	for i := range cells {
		if res[i].Run.String() != ground[i].Run.String() {
			t.Errorf("cell %s: cycle result over twin-warmed cache differs from ground truth", cells[i].Key)
		}
	}

	// A warm twin rerun is served from the twin domain, identically.
	tw2 := New(Options{TwinEngine: true, Twin: pred, ResultCache: cache})
	warm, err := tw2.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if n := tw2.Simulated(); n != 0 {
		t.Errorf("warm twin rerun simulated %d cells, want 0", n)
	}
	for i := range cells {
		if warm[i].Run.String() != first[i].Run.String() {
			t.Errorf("cell %s: warm twin answer differs from first", cells[i].Key)
		}
	}
}
