package twin

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Version is the current calibration-artifact format version. Decode
// rejects any other version with ErrVersion.
const Version = 1

const magic = "OLCAL1"

// headerLen is magic + version + payload length + sha256.
const headerLen = len(magic) + 2 + 8 + sha256.Size

// Failure sentinels. ErrOutOfConfidence is the twin's single decline
// signal — any query outside the calibrated domain (foreign config,
// unknown or modified spec, footprint outside the anchored range,
// unmodeled primitive) gets it, so callers can escalate to the cycle
// engine with one errors.Is check. The decode ladder mirrors the
// ckpt/rcache idiom, and every decode sentinel wraps ErrCalibration so
// "the artifact is unusable" is one classification no matter how it
// broke.
var (
	ErrOutOfConfidence = errors.New("twin: query outside calibrated confidence domain")

	ErrCalibration = errors.New("twin: invalid calibration artifact")
	ErrTruncated   = fmt.Errorf("%w: truncated", ErrCalibration)
	ErrFormat      = fmt.Errorf("%w: format", ErrCalibration)
	ErrVersion     = fmt.Errorf("%w: version", ErrCalibration)
	ErrChecksum    = fmt.Errorf("%w: checksum mismatch", ErrCalibration)
)

// Entry is one calibrated model family: the fitted lines and recorded
// error bounds for a (kernel, primitive, temporary-storage) cell class.
// Stall lines are in core cycles, the cycles line in base ticks.
type Entry struct {
	Kernel    string // spec name, e.g. "daxpy"
	Primitive string // "none", "fence" or "orderlight"
	TSBytes   int

	Cycles     Lin  // End-Start, base ticks
	FenceStall Lin  // FenceStallCycles, core cycles
	OLStall    Lin  // OLStallCycles, core cycles
	Correct    bool // functional verdict observed during calibration

	// Recorded error envelope: relative bounds from the cross-check
	// pass (|pred-meas| ≤ bound·|meas| + absolute floor), and the cell
	// count that informed them. Zero bounds mean "never cross-checked"
	// and fail every envelope test — a calibration artifact without a
	// cross-check pass is not trustworthy by construction.
	CyclesBound float64
	FenceBound  float64
	OLBound     float64
	Cells       int
}

// Artifact is the persisted calibration: every fitted entry plus the
// domain it is valid for. It contains no maps and no timestamps, so
// its gob encoding — and therefore Hash — is deterministic and `make
// calibrate` regenerates it byte-identically from pinned seeds.
type Artifact struct {
	ConfigHash string  // NormalizedConfigHash of the base configuration
	Channels   int     // base-config channel count (informational)
	BytesMin   int64   // smallest anchored per-channel footprint
	BytesMax   int64   // largest anchored per-channel footprint
	Anchors    []int64 // per-channel footprints the fit was anchored on
	Seed       uint64  // base-config seed the anchors ran with
	Entries    []Entry // sorted by (Kernel, Primitive, TSBytes)
}

// sortEntries fixes the canonical entry order so encoding is
// reproducible regardless of calibration scheduling.
func sortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.Kernel != b.Kernel {
			return a.Kernel < b.Kernel
		}
		if a.Primitive != b.Primitive {
			return a.Primitive < b.Primitive
		}
		return a.TSBytes < b.TSBytes
	})
}

// Encode renders the artifact into the versioned container format
// shared with internal/rcache:
//
//	magic "OLCAL1" | version uint16 | payload length uint64 | sha256 | gob payload
//
// (integers big-endian). Entries are sorted into canonical order first.
func Encode(a *Artifact) ([]byte, error) {
	sortEntries(a.Entries)
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(a); err != nil {
		return nil, fmt.Errorf("twin: encode calibration: %w", err)
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

// Decode parses and verifies a calibration blob. Failure modes map to
// distinct sentinels: short read ErrTruncated, bad magic / trailing
// garbage / undecodable payload ErrFormat, future version ErrVersion,
// digest mismatch ErrChecksum — all wrapping ErrCalibration.
func Decode(blob []byte) (*Artifact, error) {
	if len(blob) < len(magic) {
		return nil, fmt.Errorf("%w: %d bytes, header needs %d", ErrTruncated, len(blob), headerLen)
	}
	if string(blob[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrFormat, blob[:len(magic)])
	}
	if len(blob) < headerLen {
		return nil, fmt.Errorf("%w: %d bytes, header needs %d", ErrTruncated, len(blob), headerLen)
	}
	ver := binary.BigEndian.Uint16(blob[len(magic):])
	if ver != Version {
		return nil, fmt.Errorf("%w: artifact is v%d, this build reads v%d", ErrVersion, ver, Version)
	}
	declared := binary.BigEndian.Uint64(blob[len(magic)+2:])
	var sum [sha256.Size]byte
	copy(sum[:], blob[len(magic)+10:])
	payload := blob[headerLen:]
	if uint64(len(payload)) < declared {
		return nil, fmt.Errorf("%w: payload is %d of %d declared bytes", ErrTruncated, len(payload), declared)
	}
	if uint64(len(payload)) > declared {
		return nil, fmt.Errorf("%w: %d bytes of trailing garbage", ErrFormat, uint64(len(payload))-declared)
	}
	if sha256.Sum256(payload) != sum {
		return nil, fmt.Errorf("%w: payload does not match header digest", ErrChecksum)
	}
	var a Artifact
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&a); err != nil {
		return nil, fmt.Errorf("%w: payload decode: %v", ErrFormat, err)
	}
	return &a, nil
}

// Hash returns the short content hash of the artifact: the first 16
// hex digits of the sha256 over its canonical gob payload. Manifests
// carry it so every twin answer names the exact calibration it came
// from.
func (a *Artifact) Hash() string {
	sortEntries(a.Entries)
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(a); err != nil {
		// Artifact is a plain struct of numbers and strings; gob cannot
		// fail on it. Guard anyway rather than corrupt a hash.
		panic(fmt.Sprintf("twin: artifact not encodable: %v", err))
	}
	sum := sha256.Sum256(payload.Bytes())
	return hex.EncodeToString(sum[:8])
}

// Save writes the artifact to path atomically (temp file + fsync +
// rename), the same crash discipline as result-cache blobs.
func Save(a *Artifact, path string) error {
	blob, err := Encode(a)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("twin: save calibration: %w", err)
	}
	tmp := f.Name()
	if _, err = f.Write(blob); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp, 0o644)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("twin: save calibration %s: %w", path, err)
	}
	return nil
}

// Load reads, verifies and decodes a calibration artifact from disk.
func Load(path string) (*Artifact, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("twin: load calibration: %w", err)
	}
	a, err := Decode(blob)
	if err != nil {
		return nil, fmt.Errorf("twin: load calibration %s: %w", path, err)
	}
	return a, nil
}
