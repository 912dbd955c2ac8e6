package runner

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"orderlight/internal/obs"
	"orderlight/internal/rcache"
	"orderlight/internal/stats"
)

// cellResultVersion is baked into every cell cache key so a change to
// CellResult's shape (or to what a simulation means) invalidates old
// entries by construction instead of decoding them wrongly.
const cellResultVersion = 1

// CellResult is the cacheable payload of one completed cell: exactly
// the fields journal replay needs to reconstruct a Result without
// re-simulating. Kernels and manifests are rebuilt at lookup time;
// fault verdicts are never cached (faulted cells always re-execute, so
// the differential oracle really runs).
type CellResult struct {
	Run         *stats.Run
	HostLatency float64
	HostServed  int64
}

// cellCacheKey is the content address of a cell's result: the
// manifest's sha256 config hash (which covers the seed and every
// timing/geometry knob), the kernel spec, the per-channel footprint,
// the host/traffic variant, and the engine name. Deliberately absent:
// the cell's display Key (identical cells in different experiments
// share one entry) and the checkpoint/retry knobs (they cannot change a
// completed result). The engine name stays in the key even though the
// dense and skip engines are gated byte-identical — a cache must never
// be what hides a parity break; TestCellCacheEngineParity holds this
// honest.
func (e *Engine) cellCacheKey(c *Cell) string {
	return fmt.Sprintf("cell|v%d|%s|%#v|%d|%t|%#v|%s",
		cellResultVersion, obs.ConfigHash(c.Cfg), c.Spec, c.Bytes, c.Host, c.Traffic,
		obs.EngineName(e.dense))
}

// cacheableCell reports whether a cell's result may be served from or
// inserted into the result cache. Fault-injected cells are excluded —
// their point is the injection and the oracle verdict, not the result.
func cacheableCell(c *Cell) bool { return !c.Fault.Active() }

// encodeCellResult and decodeCellResult are the cell cache's gob
// round-trip.
func encodeCellResult(cr *CellResult) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cr); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeCellResult(data []byte, cr *CellResult) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(cr)
}

// cacheArmed reports whether this engine consults the result cache at
// all. Engines armed with a trace sink or sampler never do: a cache
// hit would skip the side effects those options exist for.
func (e *Engine) cacheArmed() bool {
	return e.rcache != nil && e.sink == nil && e.sampler == nil
}

// lookupCache serves a cell from the result cache. Like journal
// replay, the kernel image is rebuilt (cached builds make this cheap)
// and the manifest — when requested — carries zero wall time plus
// cache provenance. A damaged or mis-keyed blob was already handled
// inside rcache.Get as a miss.
func (e *Engine) lookupCache(c *Cell) (Result, bool, error) {
	key := e.cellCacheKey(c)
	data, ok := e.rcache.Get(key)
	if !ok {
		return Result{}, false, nil
	}
	var cr CellResult
	if err := decodeCellResult(data, &cr); err != nil || cr.Run == nil {
		// The container was intact but the payload is not a CellResult
		// (e.g. written by a future build whose gob shape moved on).
		// Treat as a miss; the recompute overwrites the slot.
		return Result{}, false, nil
	}
	k, err := e.buildKernel(c)
	if err != nil {
		return Result{}, false, err
	}
	res := Result{
		Run: cr.Run, Kernel: k,
		HostLatency: cr.HostLatency, HostServed: cr.HostServed,
	}
	if e.manifest {
		m := e.newManifest(c, 0)
		m.CacheKey = key
		m.CacheHit = true
		res.Manifest = m
	}
	return res, true, nil
}

// storeCache inserts a completed cell's result. It runs only after the
// simulation finished and the verifier recorded its verdict — the
// verdict travels inside the cached stats.Run, so a warm hit
// reproduces it bit for bit. Store failures are deliberately swallowed
// (e.g. a read-only cache directory): the cache is an accelerator, not
// a correctness dependency, and the computed result is already in hand.
func (e *Engine) storeCache(c *Cell, res Result) {
	data, err := encodeCellResult(&CellResult{
		Run: res.Run, HostLatency: res.HostLatency, HostServed: res.HostServed,
	})
	if err != nil {
		return
	}
	_ = e.rcache.Put(e.cellCacheKey(c), data)
}

// Simulated reports how many cells this engine actually simulated
// (cache hits and journal replays excluded) over its lifetime. The
// warm-cache acceptance test asserts this stays zero on a rerun.
func (e *Engine) Simulated() int64 { return e.simulated.Load() }

// ResultCacheStats snapshots the attached result cache's counters
// (zero Stats when no cache is attached).
func (e *Engine) ResultCacheStats() rcache.Stats {
	if e.rcache == nil {
		return rcache.Stats{}
	}
	return e.rcache.Stats()
}
