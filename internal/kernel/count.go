package kernel

import (
	"orderlight/internal/config"
	"orderlight/internal/gpu"
	"orderlight/internal/isa"
	"orderlight/internal/sim"
)

// Counts are a cell's whole-kernel command totals. They are
// combinatorial facts of (config, spec, footprint), not simulation
// outcomes, so Count derives them in closed form without building an
// image.
type Counts struct {
	Tiles int // tiles per channel (0 for host builds)

	// Command counts across all channels.
	MemCmds  int64 // commands occupying DRAM bank timing
	ExecCmds int64 // pure-ALU PIM commands
	Orders   int64 // ordering primitives emitted (0 unless fence or OrderLight)

	// Host-baseline accounting for the roofline model.
	HostBytes int64 // bytes the host would move for the same computation
	HostOps   int64 // int32 operations the host would execute
}

// TotalCmds returns every PIM command the kernel issues.
func (c Counts) TotalCmds() int64 { return c.MemCmds + c.ExecCmds }

// HostTime returns the roofline GPU-baseline execution time.
func (c Counts) HostTime(cfg config.Config) sim.Time {
	return gpu.HostTime(cfg, c.HostBytes, c.HostOps)
}

// Count returns the totals Build reports for the same (cfg, spec,
// bytesPerChannel) cell, in closed form.
func Count(cfg config.Config, spec Spec, bytesPerChannel int64) (Counts, error) {
	if err := cfg.Validate(); err != nil {
		return Counts{}, err
	}
	if err := spec.Validate(); err != nil {
		return Counts{}, err
	}
	n := cfg.CommandsPerTile()
	return count(cfg, spec, bytesPerChannel, n, vecPerTile(spec, n)), nil
}

// count is Count on validated inputs, with the tile size n and the
// per-structure tile widths Build also needs. Every tile emits the same
// phase structure and every channel the same tile count (RandomRows
// phases randomize addresses, never counts), so the totals are per-tile
// sums scaled by tiles × channels.
func count(cfg config.Config, spec Spec, bytesPerChannel int64, n int, perTile map[int]int) Counts {
	// Tile count: the primary data structure (first memory phase's
	// vector; Validate guarantees one) must be covered once.
	primary := 0
	for _, p := range spec.Phases {
		if p.Kind.IsMemAccess() {
			primary = p.Vec
			break
		}
	}
	dataCmds := bytesPerChannel / int64(cfg.BytesPerCommand())
	if dataCmds < 1 {
		dataCmds = 1
	}
	tiles := int((dataCmds + int64(perTile[primary]) - 1) / int64(perTile[primary]))
	if tiles < 1 {
		tiles = 1
	}

	// Per-tile sums. Every phase ends with an ordering point and, when
	// ExtraOrderEvery is set, one more follows each full run of that
	// many commands within the phase (the run restarts at phase
	// boundaries): floor((cmds-1)/every) extras.
	var mem, exec, orders, hostOps int64
	lanes := int64(cfg.BytesPerCommand() / 4) // int32 lanes per slot
	for _, p := range spec.Phases {
		c := int64(p.cmds(n))
		if p.Kind.IsMemAccess() {
			mem += c
		} else {
			exec += c
		}
		if p.Op != isa.OpNop {
			hostOps += c * lanes
		}
		orders++
		if e := int64(spec.ExtraOrderEvery); e > 0 {
			orders += (c - 1) / e
		}
	}
	if prim := cfg.Run.Primitive; prim != config.PrimitiveFence && prim != config.PrimitiveOrderLight {
		orders = 0
	}

	scale := int64(tiles) * int64(cfg.Memory.Channels)
	return Counts{
		Tiles:     tiles,
		MemCmds:   mem * scale,
		ExecCmds:  exec * scale,
		Orders:    orders * scale,
		HostBytes: mem * scale * int64(cfg.BytesPerCommand()),
		HostOps:   hostOps * scale,
	}
}
