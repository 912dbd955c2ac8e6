// Package rcache is the content-addressed result store behind warm
// sweep reruns and the olserve daemon's cross-tenant memoization.
//
// # Keying
//
// The cache maps opaque string keys to opaque byte payloads. Callers
// own the keying discipline; the invariant they must keep is that a
// key names everything the payload depends on. The runner keys a cell
// result by the manifest's sha256 config hash (which covers the seed)
// plus the kernel spec, per-channel footprint, host/traffic variant,
// and engine name. A parity test (TestCellCacheEngineParity in the
// experiments package) enforces that cached results really are
// engine-independent.
//
// # Layout
//
// On disk every entry is one blob file named by the hex sha256 of its
// key. OLRES1 is the repository's one durable container format:
//
//	magic "OLRES1" | version uint16 | payload length uint64 | sha256 | gob envelope
//
// (integers big-endian; the envelope carries the key so a blob can
// prove it answers the key that hashed to its name). Writes are
// atomic — temp file + fsync + rename — so concurrent writers and
// crashes leave either a previous complete blob or none. An in-memory
// LRU front (byte-budgeted, DefaultMemBytes by default) absorbs the
// hot-key traffic.
//
// # Corruption
//
// Get never errors: a truncated, bit-flipped, mis-keyed, or
// wrong-version blob is counted, removed, and reported as a miss, so
// the caller recomputes and rewrites the slot. The cache can lose
// work to corruption; it can never serve it.
//
// Hit/miss/store/byte counters are published process-wide on expvar
// (rcache_hits, rcache_misses, rcache_stores, rcache_bytes_read,
// rcache_bytes_written, rcache_corrupt_dropped) and per-Cache via
// Stats.
package rcache
