package rcache

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"expvar"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"orderlight/internal/chaos"
)

// Version is the current blob format version. Decode rejects any other
// version with ErrVersion.
const Version = 1

const magic = "OLRES1"

// headerLen is magic + version + payload length + sha256.
const headerLen = len(magic) + 2 + 8 + sha256.Size

// Decode failure sentinels. A damaged blob is never fatal to a run —
// Get treats every decode error as a miss and removes the blob — but
// the sentinels keep the failure modes distinct for tests and fuzzing,
// mirroring the ckpt decode ladder.
var (
	ErrTruncated   = errors.New("rcache: blob truncated")
	ErrFormat      = errors.New("rcache: blob format")
	ErrVersion     = errors.New("rcache: blob version")
	ErrChecksum    = errors.New("rcache: blob checksum mismatch")
	ErrKeyMismatch = errors.New("rcache: blob key mismatch")
)

// envelope is the gob payload inside the container: the full cache key
// travels with the data so Get can verify a blob really belongs to the
// key that hashed to its file name (defense against hash-prefix
// collisions and against blobs renamed or copied between directories).
type envelope struct {
	Key  string
	Data []byte
}

// Process-wide counters, published on expvar so olserve's -debug-addr
// style introspection (and olbench's) can watch cache effectiveness.
// Package-level so multiple Cache instances in one process aggregate.
var (
	expHits         = expvar.NewInt("rcache_hits")
	expMisses       = expvar.NewInt("rcache_misses")
	expStores       = expvar.NewInt("rcache_stores")
	expBytesRead    = expvar.NewInt("rcache_bytes_read")
	expBytesWritten = expvar.NewInt("rcache_bytes_written")
	expCorrupt      = expvar.NewInt("rcache_corrupt_dropped")
	expEvictions    = expvar.NewInt("rcache_evictions")
	expDiskBytes    = expvar.NewInt("rcache_disk_bytes")
	expDiskErrors   = expvar.NewInt("rcache_disk_errors")
	expDegraded     = expvar.NewInt("rcache_degraded")
)

// Stats is a point-in-time snapshot of one cache's counters.
type Stats struct {
	Hits         int64 // Get calls answered (memory or disk)
	Misses       int64 // Get calls not answered
	Stores       int64 // Put calls that wrote a new blob
	BytesRead    int64 // payload bytes served from disk (not memory)
	BytesWritten int64 // container bytes written to disk
	Corrupt      int64 // damaged blobs dropped instead of served
	Evictions    int64 // blobs removed by the disk size cap
	DiskBytes    int64 // current on-disk footprint
	DiskErrors   int64 // disk operations that failed
	Degraded     bool  // disk store abandoned; memory-only pass-through
}

// Cache is a content-addressed result store: an optional on-disk blob
// directory (one file per key, written atomically) fronted by an
// in-memory LRU. The zero value is not usable; call Open.
//
// Keys are opaque strings; the caller owns the keying discipline (the
// runner keys cells by config hash + kernel spec + footprint + engine).
// Values are opaque byte slices, typically a gob encoding.
type Cache struct {
	dir  string // "" = memory-only
	fsys chaos.FS

	mu       sync.Mutex
	mem      map[string]*list.Element
	ll       *list.List // front = most recent
	memBytes int64
	memCap   int64

	// Disk LRU state, keyed by blob file base name (the hex key hash)
	// so blobs found at open — whose keys are unrecoverable — still
	// participate in eviction. diskCap 0 means unbounded (no GC).
	disk      map[string]*list.Element
	dll       *list.List // front = most recent
	diskBytes int64
	diskCap   int64

	// errStreak counts consecutive failed disk operations; at
	// degradeAfter the disk store is abandoned for the life of the
	// Cache and Get/Put become memory-only pass-throughs. A run on a
	// sick disk loses memoization, never correctness.
	errStreak int
	degraded  bool

	stats Stats
}

type memEntry struct {
	key  string
	data []byte
}

type diskEntry struct {
	file string // base name inside c.dir
	size int64
}

// DefaultMemBytes is the in-memory LRU budget when Open is given a
// non-positive one. Cell results are a few hundred bytes each, so this
// holds on the order of 10^5 hot entries.
const DefaultMemBytes = 32 << 20

// degradeAfter is how many consecutive disk failures the cache
// tolerates before declaring the disk sick and going memory-only.
// One flaky operation self-heals; a full or read-only store trips the
// breaker within a handful of cells.
const degradeAfter = 3

// Config describes a cache to OpenWith.
type Config struct {
	// Dir is the blob directory; "" means memory-only.
	Dir string

	// MemBytes bounds the in-memory LRU front; <= 0 uses
	// DefaultMemBytes.
	MemBytes int64

	// DiskBytes caps the on-disk store; past it the least recently
	// used blobs are evicted. <= 0 leaves the store unbounded.
	DiskBytes int64

	// FS is the filesystem the blob store writes through; nil means
	// the real one. The chaos harness injects its sick disk here.
	FS chaos.FS
}

// Open returns a cache backed by dir, creating it if needed. An empty
// dir gives a memory-only cache (still useful inside one process: the
// daemon shares one across jobs and tenants). memBytes bounds the
// in-memory front; <= 0 uses DefaultMemBytes.
func Open(dir string, memBytes int64) (*Cache, error) {
	return OpenWith(Config{Dir: dir, MemBytes: memBytes})
}

// OpenWith is Open with the full configuration surface: disk size cap
// and injectable filesystem. Blobs already in the directory are
// inventoried (oldest first) so the size cap governs pre-existing
// state too.
func OpenWith(cfg Config) (*Cache, error) {
	fsys := cfg.FS
	if fsys == nil {
		fsys = chaos.OS
	}
	if cfg.Dir != "" {
		if err := fsys.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("rcache: open %s: %w", cfg.Dir, err)
		}
	}
	if cfg.MemBytes <= 0 {
		cfg.MemBytes = DefaultMemBytes
	}
	c := &Cache{
		dir:     cfg.Dir,
		fsys:    fsys,
		mem:     make(map[string]*list.Element),
		ll:      list.New(),
		memCap:  cfg.MemBytes,
		disk:    make(map[string]*list.Element),
		dll:     list.New(),
		diskCap: cfg.DiskBytes,
	}
	if c.dir != "" {
		if err := c.scanDisk(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// scanDisk inventories existing blobs into the disk LRU, oldest
// modification first, and applies the size cap to what it found.
func (c *Cache) scanDisk() error {
	ents, err := c.fsys.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("rcache: open %s: %w", c.dir, err)
	}
	type found struct {
		name  string
		size  int64
		mtime int64
	}
	var blobs []found
	for _, ent := range ents {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".res") {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue // raced with a concurrent eviction; skip
		}
		blobs = append(blobs, found{ent.Name(), info.Size(), info.ModTime().UnixNano()})
	}
	sort.Slice(blobs, func(i, j int) bool {
		if blobs[i].mtime != blobs[j].mtime {
			return blobs[i].mtime < blobs[j].mtime
		}
		return blobs[i].name < blobs[j].name
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, b := range blobs {
		c.disk[b.name] = c.dll.PushFront(&diskEntry{file: b.name, size: b.size})
		c.diskBytes += b.size
	}
	c.stats.DiskBytes = c.diskBytes
	expDiskBytes.Add(c.diskBytes)
	c.evictDiskLocked()
	return nil
}

// Dir reports the backing directory ("" for memory-only).
func (c *Cache) Dir() string { return c.dir }

// path maps a key to its blob file: the hex sha256 of the key (file
// names stay fixed-length and filesystem-safe no matter what the key
// contains).
func (c *Cache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, fmt.Sprintf("%x.res", sum))
}

// Encode renders a key/payload pair into OLRES1, the repository's one
// durable container format:
//
//	magic "OLRES1" | version uint16 | payload length uint64 | sha256 | gob envelope
//
// (integers big-endian; the envelope carries the key alongside the
// data so decoding can prove the blob answers the key asked about).
func Encode(key string, data []byte) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&envelope{Key: key, Data: data}); err != nil {
		return nil, fmt.Errorf("rcache: encode: %w", err)
	}
	sum := sha256.Sum256(payload.Bytes())
	out := make([]byte, 0, headerLen+payload.Len())
	out = append(out, magic...)
	out = binary.BigEndian.AppendUint16(out, Version)
	out = binary.BigEndian.AppendUint64(out, uint64(payload.Len()))
	out = append(out, sum[:]...)
	out = append(out, payload.Bytes()...)
	return out, nil
}

// Decode parses and verifies a blob container, returning the embedded
// key and payload. Failure modes map to distinct sentinels: short read
// ErrTruncated, bad magic / trailing garbage / undecodable payload
// ErrFormat, future version ErrVersion, digest mismatch ErrChecksum.
func Decode(blob []byte) (key string, data []byte, err error) {
	if len(blob) < len(magic) {
		return "", nil, fmt.Errorf("%w: %d bytes, header needs %d", ErrTruncated, len(blob), headerLen)
	}
	if string(blob[:len(magic)]) != magic {
		return "", nil, fmt.Errorf("%w: bad magic %q", ErrFormat, blob[:len(magic)])
	}
	if len(blob) < headerLen {
		return "", nil, fmt.Errorf("%w: %d bytes, header needs %d", ErrTruncated, len(blob), headerLen)
	}
	ver := binary.BigEndian.Uint16(blob[len(magic):])
	if ver != Version {
		return "", nil, fmt.Errorf("%w: blob is v%d, this build reads v%d", ErrVersion, ver, Version)
	}
	declared := binary.BigEndian.Uint64(blob[len(magic)+2:])
	var sum [sha256.Size]byte
	copy(sum[:], blob[len(magic)+10:])
	payload := blob[headerLen:]
	if uint64(len(payload)) < declared {
		return "", nil, fmt.Errorf("%w: payload is %d of %d declared bytes", ErrTruncated, len(payload), declared)
	}
	if uint64(len(payload)) > declared {
		return "", nil, fmt.Errorf("%w: %d bytes of trailing garbage", ErrFormat, uint64(len(payload))-declared)
	}
	if sha256.Sum256(payload) != sum {
		return "", nil, fmt.Errorf("%w: payload does not match header digest", ErrChecksum)
	}
	var e envelope
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&e); err != nil {
		return "", nil, fmt.Errorf("%w: payload decode: %v", ErrFormat, err)
	}
	return e.Key, e.Data, nil
}

// Get looks key up, memory first then disk. It never returns an error:
// a truncated, bit-flipped, or mis-keyed blob counts as a miss and the
// damaged file is removed so the slot is recomputed and rewritten —
// the cache can lose work to corruption but can never serve it. A
// degraded cache (sick disk) answers from memory only.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.mem[key]; ok {
		c.ll.MoveToFront(el)
		data := el.Value.(*memEntry).data
		c.stats.Hits++
		c.mu.Unlock()
		expHits.Add(1)
		return data, true
	}
	degraded := c.degraded
	c.mu.Unlock()

	if c.dir == "" || degraded {
		c.miss()
		return nil, false
	}
	path := c.path(key)
	blob, err := c.fsys.ReadFile(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			c.noteDiskErr()
		}
		c.miss()
		return nil, false
	}
	c.noteDiskOK()
	gotKey, data, err := Decode(blob)
	if err == nil && gotKey != key {
		err = fmt.Errorf("%w: blob carries %q", ErrKeyMismatch, gotKey)
	}
	if err != nil {
		c.fsys.Remove(path)
		c.mu.Lock()
		c.stats.Corrupt++
		c.dropDiskLocked(filepath.Base(path))
		c.mu.Unlock()
		expCorrupt.Add(1)
		c.miss()
		return nil, false
	}
	c.mu.Lock()
	c.stats.Hits++
	c.stats.BytesRead += int64(len(data))
	if el, ok := c.disk[filepath.Base(path)]; ok {
		c.dll.MoveToFront(el)
	}
	c.insertMemLocked(key, data)
	c.mu.Unlock()
	expHits.Add(1)
	expBytesRead.Add(int64(len(data)))
	return data, true
}

func (c *Cache) miss() {
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	expMisses.Add(1)
}

// Put stores data under key: atomically on disk (temp file + fsync +
// rename, so a crash mid-write leaves the previous blob or none) and
// in the LRU front. Storing the same key again overwrites — entries
// are content-addressed, so any two writers write the same bytes.
// A disk failure is reported to the caller but also counted toward
// the degradation breaker: after degradeAfter consecutive failures
// the disk store is abandoned and Put becomes memory-only (and stops
// returning errors) — graceful pass-through instead of a failing run.
func (c *Cache) Put(key string, data []byte) error {
	if c.dir != "" && !c.Degraded() {
		blob, err := Encode(key, data)
		if err != nil {
			return err
		}
		path := c.path(key)
		if err := c.writeBlob(path, blob); err != nil {
			c.noteDiskErr()
			c.mu.Lock()
			c.stats.Stores++
			c.insertMemLocked(key, data)
			c.mu.Unlock()
			expStores.Add(1)
			return err
		}
		c.noteDiskOK()
		expBytesWritten.Add(int64(len(blob)))
		c.mu.Lock()
		c.stats.BytesWritten += int64(len(blob))
		c.recordDiskLocked(filepath.Base(path), int64(len(blob)))
		c.evictDiskLocked()
		c.mu.Unlock()
	}
	c.mu.Lock()
	c.stats.Stores++
	c.insertMemLocked(key, data)
	c.mu.Unlock()
	expStores.Add(1)
	return nil
}

// writeBlob lands one container atomically at path.
func (c *Cache) writeBlob(path string, blob []byte) error {
	// Unique temp name per writer: two goroutines racing to store
	// the same key write identical content, and whichever rename
	// lands last wins without clobbering the other's temp file.
	f, err := c.fsys.CreateTemp(c.dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("rcache: put: %w", err)
	}
	tmp := f.Name()
	if _, err = f.Write(blob); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = c.fsys.Chmod(tmp, 0o644)
	}
	if err == nil {
		err = c.fsys.Rename(tmp, path)
	}
	if err != nil {
		c.fsys.Remove(tmp)
		return fmt.Errorf("rcache: put %s: %w", path, err)
	}
	return nil
}

// recordDiskLocked adds (or refreshes) a disk LRU entry. Caller holds
// c.mu.
func (c *Cache) recordDiskLocked(file string, size int64) {
	if el, ok := c.disk[file]; ok {
		ent := el.Value.(*diskEntry)
		c.diskBytes += size - ent.size
		expDiskBytes.Add(size - ent.size)
		ent.size = size
		c.dll.MoveToFront(el)
	} else {
		c.disk[file] = c.dll.PushFront(&diskEntry{file: file, size: size})
		c.diskBytes += size
		expDiskBytes.Add(size)
	}
	c.stats.DiskBytes = c.diskBytes
}

// dropDiskLocked forgets a disk LRU entry (corrupt blob removal,
// eviction). Caller holds c.mu.
func (c *Cache) dropDiskLocked(file string) {
	el, ok := c.disk[file]
	if !ok {
		return
	}
	ent := el.Value.(*diskEntry)
	c.dll.Remove(el)
	delete(c.disk, file)
	c.diskBytes -= ent.size
	c.stats.DiskBytes = c.diskBytes
	expDiskBytes.Add(-ent.size)
}

// evictDiskLocked removes least-recently-used blobs past the size
// cap. Caller holds c.mu. Removal failures are ignored: the entry
// leaves the accounting either way, and a genuinely sick disk trips
// the degradation breaker through the Put/Get paths.
func (c *Cache) evictDiskLocked() {
	if c.diskCap <= 0 {
		return
	}
	for c.diskBytes > c.diskCap {
		tail := c.dll.Back()
		if tail == nil {
			break
		}
		ent := tail.Value.(*diskEntry)
		c.fsys.Remove(filepath.Join(c.dir, ent.file))
		c.dropDiskLocked(ent.file)
		c.stats.Evictions++
		expEvictions.Add(1)
	}
}

// noteDiskErr counts one failed disk operation toward the degradation
// breaker.
func (c *Cache) noteDiskErr() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.DiskErrors++
	expDiskErrors.Add(1)
	c.errStreak++
	if !c.degraded && c.errStreak >= degradeAfter {
		c.degraded = true
		c.stats.Degraded = true
		expDegraded.Add(1)
	}
}

// noteDiskOK resets the consecutive-failure streak.
func (c *Cache) noteDiskOK() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.errStreak = 0
}

// Degraded reports whether the cache has abandoned its disk store.
func (c *Cache) Degraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degraded
}

// insertMemLocked adds (or refreshes) a memory entry and evicts from
// the LRU tail past the byte budget. Caller holds c.mu.
func (c *Cache) insertMemLocked(key string, data []byte) {
	if int64(len(data)) > c.memCap {
		return // larger than the whole budget; disk still has it
	}
	if el, ok := c.mem[key]; ok {
		c.memBytes += int64(len(data)) - int64(len(el.Value.(*memEntry).data))
		el.Value.(*memEntry).data = data
		c.ll.MoveToFront(el)
	} else {
		c.mem[key] = c.ll.PushFront(&memEntry{key: key, data: data})
		c.memBytes += int64(len(data))
	}
	for c.memBytes > c.memCap {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		ent := tail.Value.(*memEntry)
		c.ll.Remove(tail)
		delete(c.mem, ent.key)
		c.memBytes -= int64(len(ent.data))
	}
}

// Stats snapshots this cache's counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
