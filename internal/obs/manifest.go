package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"orderlight/internal/config"
)

// Manifest is the provenance record attached to every simulation cell:
// everything needed to reproduce the datapoint, plus the environment it
// was measured in. Manifests render alongside experiment tables (the
// -manifest flag of olbench) so results_all.md carries its own
// reproduction recipe.
type Manifest struct {
	Cell            string  `json:"cell"`                // cell key, e.g. "fig5/add/fence/ts=1/8"
	Kernel          string  `json:"kernel"`              // Table 2 workload (spec name)
	Primitive       string  `json:"primitive"`           // ordering discipline
	Seed            uint64  `json:"seed"`                // deterministic seed
	Channels        int     `json:"channels"`            // memory channels
	TSBytes         int     `json:"ts_bytes"`            // temporary storage per PIM unit
	BMF             int     `json:"bmf"`                 // bandwidth multiplication factor
	BytesPerChannel int64   `json:"bytes_per_channel"`   // data footprint
	HostBaseline    bool    `json:"host_baseline"`       // host-streaming cell, not a PIM kernel
	ConfigHash      string  `json:"config_hash"`         // ConfigHash of the full config
	Engine          string  `json:"engine"`              // "skip" or "dense"
	WallMS          float64 `json:"wall_ms"`             // host wall-clock time of the cell
	GoVersion       string  `json:"go_version"`          // runtime.Version()
	CacheKey        string  `json:"cache_key,omitempty"` // result-cache content address, when a cache was armed
	CacheHit        bool    `json:"cache_hit,omitempty"` // result served from the cache (WallMS is then zero)
}

// ConfigHash returns a short deterministic digest of the complete
// simulator configuration: SHA-256 over the canonical JSON encoding
// (struct field order is fixed, so the encoding — and the hash — round
// trips for equal configs). 16 hex digits are plenty for collision-free
// identification of experiment grids.
func ConfigHash(cfg config.Config) string {
	b, err := json.Marshal(cfg)
	if err != nil {
		// Config is a plain struct of numbers and strings; Marshal
		// cannot fail on it. Guard anyway rather than corrupt a hash.
		panic(fmt.Sprintf("obs: config not encodable: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// EngineName names the cycle engine for manifests and result-cache
// keys.
func EngineName(dense bool) string {
	if dense {
		return "dense"
	}
	return "skip"
}

// JSON renders the manifest as a single JSON object.
func (m Manifest) JSON() string {
	b, err := json.Marshal(m)
	if err != nil {
		panic(fmt.Sprintf("obs: manifest not encodable: %v", err))
	}
	return string(b)
}

// String renders the manifest as one compact human-readable line. It
// deliberately includes only the deterministic reproduction fields —
// no wall time, go version, or cache provenance — so rendered results
// (results_all.md) are byte-identical across machines, reruns, and
// cold-vs-warm cache states; CI regenerates them and diffs. The JSON
// form carries the full record.
func (m Manifest) String() string {
	return fmt.Sprintf("%s: kernel=%s primitive=%s seed=%d cfg=%s engine=%s bytes=%d",
		m.Cell, m.Kernel, m.Primitive, m.Seed, m.ConfigHash, m.Engine, m.BytesPerChannel)
}
