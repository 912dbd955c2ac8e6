// Package ckpt implements crash-safe checkpoint files and the per-cell
// progress journal behind resumable runs.
//
// A checkpoint is the complete machine state at an epoch-safe boundary
// (between engine steps), wrapped in a versioned, checksummed container:
//
//	magic "OLCKPT" | version uint16 | payload length uint64 | sha256 | gob payload
//
// (integers big-endian). The payload is the gob encoding of Checkpoint.
// Writes are atomic (temp file + fsync + rename), so a crash mid-write
// leaves either the previous checkpoint or none — never a torn file.
// Loads verify structure and checksum before decoding and classify every
// failure mode as a distinct olerrors sentinel; a damaged file is always
// a loud, typed error, never a silent bad resume.
//
// Resuming from a checkpoint is deterministic: a run checkpointed at
// cycle C and continued produces byte-identical results (final memory
// image, statistics, non-clock trace events) to one that was never
// interrupted, on both the dense and skip-ahead engines.
package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"os"

	"orderlight/internal/chaos"
	"orderlight/internal/gpu"
	"orderlight/internal/olerrors"
)

// Version is the current checkpoint format version. Decode rejects any
// other version with olerrors.ErrCheckpointVersion. Version 2 narrowed
// isa.Request to sized integer fields and an OrderLight group mask,
// which gob cannot decode from a version-1 payload.
const Version = 2

const magic = "OLCKPT"

// headerLen is magic + version + payload length + sha256.
const headerLen = len(magic) + 2 + 8 + sha256.Size

// Meta identifies the run a checkpoint belongs to. Load-time identity
// checks (cell hash, config hash, engine) are the resume safety net: a
// checkpoint restored into a differently-configured run would decode
// cleanly and then diverge silently, so the runner refuses mismatches
// with olerrors.ErrCheckpointMismatch. The remaining fields are
// provenance for humans reading a stray .ckpt file.
type Meta struct {
	CellHash   string // runner cell identity (see runner cell hashing)
	Cell       string // human-readable cell key
	Kernel     string // kernel spec name
	ConfigHash string // obs.ConfigHash of the cell's config
	Engine     string // obs.EngineName: "dense" or "skip"
	Seed       uint64
	Bytes      int64  // per-channel footprint
	Fault      string // fault spec (String form), "none" when unfaulted
	Host       bool   // host-baseline cell
	Traffic    bool   // synthetic host traffic armed
	CoreCycle  int64  // core cycle the state was captured at
	SimTime    int64  // engine time in base ticks
}

// Checkpoint is a checkpoint file's payload.
type Checkpoint struct {
	Meta    Meta
	Machine *gpu.MachineState
}

// Encode renders a checkpoint into the versioned container format.
func Encode(c *Checkpoint) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(c); err != nil {
		return nil, fmt.Errorf("ckpt: encode: %w", err)
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

// Decode parses and verifies a checkpoint container. Every failure mode
// maps to a distinct sentinel: a short read is ErrCheckpointTruncated,
// wrong magic or trailing garbage or an undecodable payload is
// ErrCheckpointFormat, a version from the future is
// ErrCheckpointVersion, and a payload that does not hash to the header's
// digest is ErrCheckpointChecksum.
func Decode(data []byte) (*Checkpoint, error) {
	if len(data) < len(magic) {
		return nil, fmt.Errorf("%w: %d bytes, header needs %d", olerrors.ErrCheckpointTruncated, len(data), headerLen)
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", olerrors.ErrCheckpointFormat, data[:len(magic)])
	}
	if len(data) < headerLen {
		return nil, fmt.Errorf("%w: %d bytes, header needs %d", olerrors.ErrCheckpointTruncated, len(data), headerLen)
	}
	ver := binary.BigEndian.Uint16(data[len(magic):])
	if ver < Version {
		return nil, fmt.Errorf("%w: file is v%d from an older build, this build reads v%d; delete the checkpoint file and rerun the cell",
			olerrors.ErrCheckpointVersion, ver, Version)
	}
	if ver != Version {
		return nil, fmt.Errorf("%w: file is v%d, this build reads v%d", olerrors.ErrCheckpointVersion, ver, Version)
	}
	declared := binary.BigEndian.Uint64(data[len(magic)+2:])
	var sum [sha256.Size]byte
	copy(sum[:], data[len(magic)+10:])
	payload := data[headerLen:]
	if uint64(len(payload)) < declared {
		return nil, fmt.Errorf("%w: payload is %d of %d declared bytes", olerrors.ErrCheckpointTruncated, len(payload), declared)
	}
	if uint64(len(payload)) > declared {
		return nil, fmt.Errorf("%w: %d bytes of trailing garbage", olerrors.ErrCheckpointFormat, uint64(len(payload))-declared)
	}
	if sha256.Sum256(payload) != sum {
		return nil, fmt.Errorf("%w: payload does not match header digest", olerrors.ErrCheckpointChecksum)
	}
	c := &Checkpoint{}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(c); err != nil {
		return nil, fmt.Errorf("%w: payload decode: %v", olerrors.ErrCheckpointFormat, err)
	}
	return c, nil
}

// Save writes a checkpoint atomically: the container is written to
// path+".tmp", synced, and renamed over path. A crash at any point
// leaves either the previous file or no file — the temp file is removed
// on any error.
func Save(path string, c *Checkpoint) error {
	return SaveFS(path, c, chaos.OS)
}

// SaveFS is Save through an injectable filesystem — the seam the chaos
// harness uses to make checkpoint publication fail (ENOSPC, torn
// writes, rename races).
func SaveFS(path string, c *Checkpoint, fsys chaos.FS) error {
	if fsys == nil {
		fsys = chaos.OS
	}
	data, err := Encode(c)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("ckpt: save: %w", err)
	}
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("ckpt: save %s: %w", path, err)
	}
	return nil
}

// Load reads and decodes a checkpoint file. The error distinguishes a
// missing file (os.IsNotExist / errors.Is(err, fs.ErrNotExist)) from a
// damaged one (the Decode sentinels).
func Load(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("ckpt: load %s: %w", path, err)
	}
	return c, nil
}
