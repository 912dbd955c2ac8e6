package kernel

import (
	"orderlight/internal/config"
	"orderlight/internal/dram"
	"orderlight/internal/gpu"
	"orderlight/internal/isa"
	"orderlight/internal/sim"
)

// Kernel is a fully generated, runnable PIM kernel: the initial memory
// image and one warp program per channel, plus the command counts and
// host-equivalent traffic the experiments need for the GPU baseline.
type Kernel struct {
	Spec     Spec
	Programs []gpu.Program
	Store    *dram.Store
	Geom     dram.Geometry
	Counts
}

// Build generates the kernel for the given configuration. bytesPerChannel
// is the size of the kernel's primary data structure per memory channel;
// the tile count follows from the temporary-storage size and the
// bandwidth multiplication factor (fewer, wider commands at higher BMF —
// the effect Figure 13 sweeps).
func Build(cfg config.Config, spec Spec, bytesPerChannel int64) (*Kernel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	geom := dram.NewGeometry(cfg.Memory.Channels, cfg.Memory.BanksPerChannel,
		cfg.Memory.RowBufferBytes, cfg.Memory.BusWidthBytes,
		cfg.Memory.GroupsPerChannel, cfg.PIM.BMF)
	n := cfg.CommandsPerTile()
	perTile := vecPerTile(spec, n)
	tiles := count(cfg, spec, bytesPerChannel, n, perTile).Tiles

	// Row layout: every data structure lives in bank 0 of its channel
	// (the paper's mapping places a kernel's operands in the same PIM
	// memory-group; distinct structures land in distinct rows, which is
	// what makes phase switches pay row open/close costs — §7.1.1).
	rowSpan := 1
	for _, pt := range perTile {
		rows := (tiles*pt + geom.SlotsPerRow - 1) / geom.SlotsPerRow
		if rows+1 > rowSpan {
			rowSpan = rows + 1
		}
	}

	k := &Kernel{Spec: spec, Geom: geom, Store: dram.NewStore(geom.LanesPerSlot),
		Counts: Counts{Tiles: tiles}}
	for ch := 0; ch < cfg.Memory.Channels; ch++ {
		prog := k.buildChannel(cfg, geom, spec, ch, tiles, n, perTile, rowSpan)
		k.Programs = append(k.Programs, prog)
	}
	k.HostBytes = k.MemCmds * int64(cfg.BytesPerCommand())
	return k, nil
}

// vecPerTile computes, per data-structure index, how many commands of
// that structure one tile consumes (the maximum across phases so that
// read-modify-write structures like daxpy's b stay aligned).
func vecPerTile(spec Spec, n int) map[int]int {
	out := make(map[int]int)
	for _, p := range spec.Phases {
		if !p.Kind.IsMemAccess() {
			continue
		}
		if c := p.cmds(n); c > out[p.Vec] {
			out[p.Vec] = c
		}
	}
	return out
}

// buildChannel emits one channel's warp program and initializes its data.
func (k *Kernel) buildChannel(cfg config.Config, geom dram.Geometry, spec Spec,
	ch, tiles, n int, perTile map[int]int, rowSpan int) gpu.Program {

	rng := sim.NewRand(cfg.Run.Seed ^ uint64(ch)<<32 ^ 0x9e37)
	var instrs []isa.Instr

	// Default placement keeps every operand in memory-group 0, bank 0
	// (the paper's mapping: a kernel's structures share a group and
	// conflict in rows). With SpreadTiles, tile t lives entirely in
	// group t mod GroupsPerChannel so groups work independently.
	groupsUsed := 1
	if spec.SpreadTiles {
		groupsUsed = cfg.Memory.GroupsPerChannel
	}
	group, bank := 0, 0 // current tile's placement

	vecBaseRow := func(v int) int { return v * rowSpan }
	addrOf := func(v, idx int) isa.Addr {
		return geom.Encode(dram.Loc{
			Channel: ch, Bank: bank,
			Row: vecBaseRow(v) + idx/geom.SlotsPerRow,
			Col: idx % geom.SlotsPerRow,
		})
	}
	// Lane l of slot idx of structure v holds
	// int32(1+v) * int32(100*ch+10*idx+l%7+1). The lanes repeat with
	// period 7, so the first 7 are computed and then doubled by copying
	// (each copy starts at a multiple of 7). Adding and multiplying in
	// int32 wraps to the same values as converting the int sum to int32.
	vals := make([]int32, geom.LanesPerSlot) // reused: Write copies
	initSlot := func(a isa.Addr, v, idx int) {
		scale, base := int32(1+v), int32(100*ch+10*idx+1)
		for l := range vals[:min(7, len(vals))] {
			vals[l] = scale * (base + int32(l))
		}
		for l := 7; l < len(vals); l *= 2 {
			copy(vals[l:], vals[:l])
		}
		k.Store.Write(a, vals)
	}

	order := func() {
		k.Orders++
		switch cfg.Run.Primitive {
		case config.PrimitiveFence:
			instrs = append(instrs, isa.Instr{Kind: isa.KindFence, Group: group})
		case config.PrimitiveOrderLight:
			instrs = append(instrs, isa.Instr{Kind: isa.KindOrderLight, Group: group})
		default:
			k.Orders-- // none: no primitive emitted
		}
	}

	sinceOrder := 0
	for t := 0; t < tiles; t++ {
		group = t % groupsUsed
		bank = group * cfg.BanksPerGroup()
		tIdx := t / groupsUsed // tile index within its group
		slot := 0
		for _, p := range spec.Phases {
			cmds := p.cmds(n)
			emitted := 0
			for emitted < cmds {
				chunk := cmds - emitted
				if spec.ExtraOrderEvery > 0 && sinceOrder+chunk > spec.ExtraOrderEvery {
					chunk = spec.ExtraOrderEvery - sinceOrder
					if chunk <= 0 {
						order()
						sinceOrder = 0
						continue
					}
				}
				in := isa.Instr{
					Kind: p.Kind, Op: p.Op, Imm: p.Imm,
					Count: chunk, TSlot: slot % n, Group: group,
					Strd: int64(geom.Channels),
				}
				if p.Kind.IsMemAccess() {
					var base int
					if p.RandomRows {
						// Irregular access: a pseudo-random aligned run
						// inside the structure's per-group footprint.
						span := (tiles/groupsUsed + 1) * perTile[p.Vec]
						if span < chunk {
							span = chunk
						}
						base = rng.Intn(span-chunk+1) / chunk * chunk
					} else {
						base = tIdx*perTile[p.Vec] + emitted
					}
					in.Addr = addrOf(p.Vec, base)
					// Seed operand data for everything except pure
					// stores, whose targets are overwritten anyway. The
					// formula is deterministic in (vec, idx), so
					// re-seeding an address is idempotent.
					if p.Kind != isa.KindPIMStore {
						for i := 0; i < chunk; i++ {
							initSlot(addrOf(p.Vec, base+i), p.Vec, base+i)
						}
					}
				}
				instrs = append(instrs, in)
				if p.Kind.IsMemAccess() {
					k.MemCmds += int64(chunk)
				} else {
					k.ExecCmds += int64(chunk)
				}
				if p.Op != isa.OpNop {
					k.HostOps += int64(chunk) * int64(geom.LanesPerSlot)
				}
				emitted += chunk
				sinceOrder += chunk
				slot += chunk
			}
			order()
			sinceOrder = 0
		}
	}
	return gpu.Program{Channel: ch, Instrs: instrs}
}
