// Package config defines every tunable parameter of the OrderLight
// simulator. Default() reproduces Table 1 of the paper (Volta Titan V
// GPU host + 16-channel HBM) plus the PIM-unit parameters of §4.1 and
// the OrderLight packet parameters of §5.3.1.
package config

import (
	"fmt"
	"strconv"
	"strings"

	"orderlight/internal/olerrors"
)

// Primitive selects the memory-ordering primitive the generated PIM
// kernel uses between dependent command phases.
type Primitive int

const (
	// PrimitiveNone inserts no ordering at all. The memory controller's
	// FR-FCFS scheduler is then free to reorder dependent PIM commands,
	// which is functionally incorrect (Figure 5's leftmost point).
	PrimitiveNone Primitive = iota
	// PrimitiveFence is the core-centric baseline: the warp stalls until
	// every prior PIM request has been issued to the DRAM device and
	// acknowledged back at the core (§4.3).
	PrimitiveFence
	// PrimitiveOrderLight is the paper's contribution: a lightweight
	// packet that enforces ordering at the memory controller (§5).
	PrimitiveOrderLight
	// PrimitiveSeqno is the related-work baseline of §8.1 (Kim et al.,
	// SC'17): every PIM request carries a sequence number, the memory
	// controller releases requests strictly in sequence order, and the
	// core throttles itself with credit-based flow control so the
	// controller's reorder buffering stays bounded.
	PrimitiveSeqno
)

// String implements fmt.Stringer.
func (p Primitive) String() string {
	switch p {
	case PrimitiveNone:
		return "none"
	case PrimitiveFence:
		return "fence"
	case PrimitiveOrderLight:
		return "orderlight"
	case PrimitiveSeqno:
		return "seqno"
	default:
		return fmt.Sprintf("Primitive(%d)", int(p))
	}
}

// ParsePrimitive converts a string flag value to a Primitive.
func ParsePrimitive(s string) (Primitive, error) {
	switch strings.ToLower(s) {
	case "none", "nofence":
		return PrimitiveNone, nil
	case "fence":
		return PrimitiveFence, nil
	case "orderlight", "ol":
		return PrimitiveOrderLight, nil
	case "seqno", "sequence":
		return PrimitiveSeqno, nil
	}
	return 0, fmt.Errorf("config: unknown primitive %q (want none|fence|orderlight|seqno)", s)
}

// DRAMTiming holds the HBM timing parameters of Table 1, all in memory
// clock cycles.
type DRAMTiming struct {
	CCD  int // column-to-column delay, different bank
	RRD  int // activate-to-activate delay, different banks
	RCDW int // activate-to-column-write delay
	RCDR int // activate-to-column-read delay (not listed in Table 1; = RCDW)
	RAS  int // activate-to-precharge minimum
	RP   int // precharge period
	CL   int // CAS (read) latency
	WL   int // write latency
	CDLR int // last-read-to-write turnaround
	WR   int // write recovery (write end to precharge)
	CCDL int // column-to-column delay, same bank (long)
	WTP  int // write-to-precharge delay
	RTP  int // read-to-precharge delay (not listed; modeled as CCDL)
}

// GPU holds the host-GPU parameters of Table 1 plus the core-pipeline
// parameters needed by the SM model of §5.3.1.
type GPU struct {
	NumSMs           int     // total SMs on the device (80)
	PIMSMs           int     // SMs running the PIM kernel (simulated cycle-by-cycle)
	WarpsPerSM       int     // PIM warps per simulated SM
	CoreFreqMHz      int     // 1200
	L1SizeKB         int     // 32
	SharedMemKB      int     // 96
	L2SizeMB         int     // 3
	L2QueueSize      int     // 64 entries per L2 sub-partition queue
	RWQueueSize      int     // 64 entries for each MC read/write queue
	InterconnectToL2 int     // SM-to-L2 latency in core cycles (120)
	IcntRoutes       int     // parallel NoC routes per channel (1 = in-order pipe; >1 = adaptive routing, §9)
	L2ToDRAM         int     // L2-to-DRAM-scheduler latency in core cycles (100)
	LDSTQueueSize    int     // per-SM load/store queue depth
	IssuePerCycle    int     // warp instructions issued per SM per cycle (warp schedulers)
	CollectorUnits   int     // operand-collector capacity in instructions
	CollectorLat     int     // operand-collection latency in core cycles
	CollectorTags    int     // OrderLight counters per SM (0 = one per channel x group, §5.3.1)
	L2SubPartitions  int     // divergent sub-paths per L2 slice (§5.3.2)
	AckLatency       int     // MC-to-SM acknowledgment latency in core cycles (fence baseline)
	HostPeakGBs      float64 // peak external memory bandwidth available to the host
	HostEff          float64 // achievable fraction of peak for streaming host kernels
	PeakGFLOPs       float64 // host compute roofline for compute-bound phases
}

// Memory holds the HBM organization parameters of Table 1.
type Memory struct {
	Channels         int // 16
	BanksPerChannel  int // 16
	BusWidthBytes    int // 32 (one column access moves 32 B)
	MemFreqMHz       int // 850
	RowBufferBytes   int // row-buffer (page) size per bank
	GroupsPerChannel int // PIM memory-groups per channel (banks/group = Banks/Groups)
	ChunkBytes       int // physical channel-interleave granularity (256 B)
	Sched            SchedPolicy
	Timing           DRAMTiming

	// Refresh models all-bank refresh. The paper's evaluation (like most
	// ordering studies) leaves refresh out; it is off by default and the
	// ablation-refresh experiment quantifies its impact.
	RefreshEnabled bool
	REFI           int // memory cycles between refresh commands (tREFI)
	RFC            int // refresh cycle duration in memory cycles (tRFC)
}

// SchedPolicy selects the memory controller's transaction scheduler.
type SchedPolicy string

const (
	// SchedFRFCFS is Table 1's scheduler: row hits first, then oldest.
	// Its reordering freedom is both the performance and the hazard the
	// ordering primitives manage.
	SchedFRFCFS SchedPolicy = "frfcfs"
	// SchedFCFS issues strictly oldest-first (per ordering-eligible
	// candidate) — no row-hit hoisting. Used by the ablation-sched
	// experiment to isolate what FR-FCFS contributes.
	SchedFCFS SchedPolicy = "fcfs"
)

// HostKind selects the host front end issuing the PIM kernel.
type HostKind string

const (
	// HostGPU is the paper's evaluation host: SIMT warps on SMs.
	HostGPU HostKind = "gpu"
	// HostCPU is the §9 extension: out-of-order CPU cores whose
	// reservation stations reorder memory issue — a second reordering
	// source OrderLight must survive.
	HostCPU HostKind = "cpu"
)

// Host configures the front end. GPU-specific parameters stay in GPU;
// these apply to the OoO-CPU host of §9.
type Host struct {
	Kind          HostKind
	ROBSize       int // reorder-buffer entries per core
	DispatchWidth int // instruction lanes dispatched per cycle
	MemPorts      int // memory issues per cycle (reservation-station ports)
}

// PIM holds the generic parameterized PIM-unit knobs of §4.1.
type PIM struct {
	TSBytes int // temporary storage per PIM unit, in bytes
	BMF     int // bandwidth multiplication factor over host bandwidth
}

// Energy holds per-event energies and background power for the memory
// system (representative HBM2-class constants; the evaluation cares
// about relative energy between ordering disciplines).
type Energy struct {
	ActNJ       float64 // one activate+precharge pair
	RdNJ        float64 // one 32 B column read, incl. I/O
	WrNJ        float64 // one 32 B column write, incl. I/O
	RefNJ       float64 // one all-bank refresh
	PIMOpNJ     float64 // one PIM command at the unit (ALU + TS)
	BackgroundW float64 // static + peripheral power per channel, watts
}

// Run holds per-run knobs that are not hardware parameters.
type Run struct {
	Primitive  Primitive
	Seed       uint64  // scheduler tie-break / adversarial reorder seed
	DeadlineMS float64 // simulated-time budget before declaring a hang
	Verify     bool    // functionally verify results against the reference executor

	// SeqnoCredits bounds the outstanding unacknowledged PIM requests
	// per warp under PrimitiveSeqno — the credit-based buffer management
	// the §8.1 baseline needs to keep memory-side buffering finite.
	SeqnoCredits int
}

// Config is the complete simulator configuration.
type Config struct {
	GPU    GPU
	Host   Host
	Memory Memory
	PIM    PIM
	Energy Energy
	Run    Run
}

// Default returns the paper's Table 1 configuration with a 1/8-row-buffer
// temporary storage, BMF 16 and the OrderLight primitive.
func Default() Config {
	return Config{
		GPU: GPU{
			NumSMs:           80,
			PIMSMs:           8, // one SM per two channels (§6: 8 SMs for 16 channels)
			WarpsPerSM:       2, // one warp per memory channel
			CoreFreqMHz:      1200,
			L1SizeKB:         32,
			SharedMemKB:      96,
			L2SizeMB:         3,
			L2QueueSize:      64,
			RWQueueSize:      64,
			InterconnectToL2: 120,
			IcntRoutes:       1,
			L2ToDRAM:         100,
			LDSTQueueSize:    32,
			IssuePerCycle:    2, // Volta SMs host four schedulers; two PIM warps per SM
			CollectorUnits:   16,
			CollectorLat:     4,
			CollectorTags:    0,
			L2SubPartitions:  2,
			AckLatency:       30, // dedicated issued-to-DRAM acknowledgment path back to the SM
			HostPeakGBs:      405,
			HostEff:          0.80,
			PeakGFLOPs:       14900, // Titan V FP32
		},
		Host: Host{
			Kind:          HostGPU,
			ROBSize:       64,
			DispatchWidth: 4,
			MemPorts:      2,
		},
		Memory: Memory{
			Channels:         16,
			BanksPerChannel:  16,
			BusWidthBytes:    32,
			MemFreqMHz:       850,
			RowBufferBytes:   2048,
			GroupsPerChannel: 4,
			ChunkBytes:       256,
			Sched:            SchedFRFCFS,
			Timing: DRAMTiming{
				CCD: 1, RRD: 3, RCDW: 9, RCDR: 9, RAS: 28, RP: 12,
				CL: 12, WL: 2, CDLR: 3, WR: 10, CCDL: 2, WTP: 9, RTP: 2,
			},
			RefreshEnabled: false,
			REFI:           3315, // ~3.9 us at 850 MHz
			RFC:            298,  // ~350 ns at 850 MHz
		},
		PIM: PIM{
			TSBytes: 256, // 1/8 of a 2 KB row buffer
			BMF:     16,
		},
		Energy: Energy{
			ActNJ: 1.7, RdNJ: 1.1, WrNJ: 1.2, RefNJ: 25,
			PIMOpNJ: 0.4, BackgroundW: 0.15,
		},
		Run: Run{
			Primitive:    PrimitiveOrderLight,
			Seed:         1,
			DeadlineMS:   50,
			Verify:       true,
			SeqnoCredits: 32,
		},
	}
}

// TSFraction parses a temporary-storage size expressed as a fraction of
// the row-buffer size, e.g. "1/8" or "1/16", and returns it in bytes.
func (c Config) TSFraction(frac string) (int, error) {
	num, den, ok := strings.Cut(frac, "/")
	if !ok {
		return 0, fmt.Errorf("config: %w: TS fraction %q must look like 1/8", olerrors.ErrInvalidSpec, frac)
	}
	n, err := strconv.Atoi(strings.TrimSpace(num))
	if err != nil {
		return 0, fmt.Errorf("config: %w: bad TS fraction numerator: %v", olerrors.ErrInvalidSpec, err)
	}
	d, err := strconv.Atoi(strings.TrimSpace(den))
	if err != nil {
		return 0, fmt.Errorf("config: %w: bad TS fraction denominator: %v", olerrors.ErrInvalidSpec, err)
	}
	if n <= 0 || d <= 0 || c.Memory.RowBufferBytes*n%d != 0 {
		return 0, fmt.Errorf("config: %w: TS fraction %q does not divide the %d B row buffer", olerrors.ErrInvalidSpec, frac, c.Memory.RowBufferBytes)
	}
	return c.Memory.RowBufferBytes * n / d, nil
}

// WithTSFraction returns a copy of the config with PIM.TSBytes set to the
// given fraction of the row buffer. It panics on a malformed fraction;
// use TSFraction for error handling.
func (c Config) WithTSFraction(frac string) Config {
	b, err := c.TSFraction(frac)
	if err != nil {
		panic(err)
	}
	c.PIM.TSBytes = b
	return c
}

// CommandsPerTile returns N, the number of 32 B PIM commands that fit in
// the temporary storage (Figure 11: a 256 B TS admits 8 column accesses).
func (c Config) CommandsPerTile() int {
	return c.PIM.TSBytes / c.Memory.BusWidthBytes
}

// BytesPerCommand returns the number of bytes one PIM command processes
// inside the memory die: the 32 B host-visible column access multiplied
// by the bandwidth multiplication factor (§6, Evaluation Metrics).
func (c Config) BytesPerCommand() int {
	return c.Memory.BusWidthBytes * c.PIM.BMF
}

// BanksPerGroup returns the number of banks in one PIM memory-group.
func (c Config) BanksPerGroup() int {
	return c.Memory.BanksPerChannel / c.Memory.GroupsPerChannel
}

// HostPeakBandwidth returns the host-visible peak bandwidth in bytes/s
// implied by the memory organization.
func (c Config) HostPeakBandwidth() float64 {
	return float64(c.Memory.Channels) * float64(c.Memory.BusWidthBytes) * float64(c.Memory.MemFreqMHz) * 1e6
}

// Limits a configuration must respect so every per-request field fits
// the sized integer isa.Request stores it in. Channels and memory-groups
// are capped at 16 by the 4-bit fields of the OrderLight packet itself.
const (
	MaxBanks   = 255   // uint8 Request.Bank
	MaxWarps   = 32767 // int16 Request.Warp (PIM SMs x warps per SM)
	MaxTSSlots = 65535 // uint16 Request.TSlot (TS slots per channel)
	MaxFanOut  = 255   // uint8 Request.Copies (L2 sub-partitions, interconnect routes)
)

// Validate checks internal consistency and returns a descriptive error
// for the first violated invariant, wrapping olerrors.ErrInvalidSpec so
// callers can classify with errors.Is.
func (c Config) Validate() error {
	if err := c.validate(); err != nil {
		return fmt.Errorf("%w: %v", olerrors.ErrInvalidSpec, err)
	}
	return nil
}

func (c Config) validate() error {
	m := c.Memory
	switch {
	case c.GPU.PIMSMs <= 0 || c.GPU.WarpsPerSM <= 0:
		return fmt.Errorf("config: need at least one PIM SM and warp")
	case c.GPU.PIMSMs*c.GPU.WarpsPerSM < m.Channels:
		return fmt.Errorf("config: %d PIM warps cannot drive %d channels (one warp per channel, §5.4)",
			c.GPU.PIMSMs*c.GPU.WarpsPerSM, m.Channels)
	case m.Channels <= 0 || m.Channels > 16:
		return fmt.Errorf("config: channels %d out of range [1,16] (4-bit channel ID, Figure 8)", m.Channels)
	case m.GroupsPerChannel <= 0 || m.GroupsPerChannel > 16:
		return fmt.Errorf("config: memory-groups %d out of range [1,16] (4-bit group ID, Figure 8)", m.GroupsPerChannel)
	case m.BanksPerChannel <= 0 || m.BanksPerChannel > MaxBanks:
		return fmt.Errorf("config: banks %d out of range [1,%d] (8-bit bank field of a request)", m.BanksPerChannel, MaxBanks)
	case c.GPU.PIMSMs*c.GPU.WarpsPerSM > MaxWarps:
		return fmt.Errorf("config: %d PIM SMs x %d warps exceeds %d (16-bit signed warp ID of a request)",
			c.GPU.PIMSMs, c.GPU.WarpsPerSM, MaxWarps)
	case m.BanksPerChannel%m.GroupsPerChannel != 0:
		return fmt.Errorf("config: %d banks not divisible into %d groups", m.BanksPerChannel, m.GroupsPerChannel)
	case m.RowBufferBytes <= 0 || m.RowBufferBytes%m.BusWidthBytes != 0:
		return fmt.Errorf("config: row buffer %d B not a multiple of the %d B bus", m.RowBufferBytes, m.BusWidthBytes)
	case m.ChunkBytes <= 0 || m.ChunkBytes%m.BusWidthBytes != 0:
		return fmt.Errorf("config: chunk %d B not a multiple of the %d B bus", m.ChunkBytes, m.BusWidthBytes)
	case c.PIM.TSBytes < m.BusWidthBytes:
		return fmt.Errorf("config: TS %d B holds no %d B command", c.PIM.TSBytes, m.BusWidthBytes)
	case c.PIM.TSBytes%m.BusWidthBytes != 0:
		return fmt.Errorf("config: TS %d B not a multiple of the %d B bus", c.PIM.TSBytes, m.BusWidthBytes)
	case c.CommandsPerTile()*m.GroupsPerChannel > MaxTSSlots:
		return fmt.Errorf("config: %d TS slots per channel (%d per group x %d groups) exceed %d (16-bit TS slot field of a request)",
			c.CommandsPerTile()*m.GroupsPerChannel, c.CommandsPerTile(), m.GroupsPerChannel, MaxTSSlots)
	case c.PIM.BMF <= 0:
		return fmt.Errorf("config: BMF must be positive, got %d", c.PIM.BMF)
	case c.GPU.IssuePerCycle <= 0:
		return fmt.Errorf("config: need at least one issue slot per SM cycle")
	case c.GPU.IcntRoutes <= 0 || c.GPU.IcntRoutes > MaxFanOut:
		return fmt.Errorf("config: interconnect routes %d out of range [1,%d] (8-bit copy count of a replicated packet)",
			c.GPU.IcntRoutes, MaxFanOut)
	case c.Run.Primitive == PrimitiveSeqno && c.Run.SeqnoCredits <= 0:
		return fmt.Errorf("config: seqno primitive needs positive SeqnoCredits")
	case c.Memory.Sched != SchedFRFCFS && c.Memory.Sched != SchedFCFS:
		return fmt.Errorf("config: unknown scheduler policy %q", c.Memory.Sched)
	case c.Memory.RefreshEnabled && (c.Memory.REFI <= 0 || c.Memory.RFC <= 0 || c.Memory.RFC >= c.Memory.REFI):
		return fmt.Errorf("config: refresh needs 0 < tRFC (%d) < tREFI (%d)", c.Memory.RFC, c.Memory.REFI)
	case c.Host.Kind != HostGPU && c.Host.Kind != HostCPU:
		return fmt.Errorf("config: unknown host kind %q", c.Host.Kind)
	case c.Host.Kind == HostCPU && (c.Host.ROBSize <= 0 || c.Host.DispatchWidth <= 0 || c.Host.MemPorts <= 0):
		return fmt.Errorf("config: CPU host needs positive ROB size, dispatch width and memory ports")
	case c.Host.Kind == HostCPU && c.Run.Primitive == PrimitiveSeqno && c.Run.SeqnoCredits > c.GPU.RWQueueSize:
		return fmt.Errorf("config: seqno credits (%d) must not exceed the R/W queue depth (%d) on an OoO host (deadlock)",
			c.Run.SeqnoCredits, c.GPU.RWQueueSize)
	case c.GPU.L2SubPartitions <= 0 || c.GPU.L2SubPartitions > MaxFanOut:
		return fmt.Errorf("config: L2 sub-partitions %d out of range [1,%d] (8-bit copy count of a replicated packet)",
			c.GPU.L2SubPartitions, MaxFanOut)
	case m.BanksPerChannel%c.GPU.L2SubPartitions != 0:
		return fmt.Errorf("config: %d banks not divisible across %d L2 sub-partitions", m.BanksPerChannel, c.GPU.L2SubPartitions)
	}
	t := m.Timing
	for _, v := range []struct {
		name string
		val  int
	}{
		{"CCD", t.CCD}, {"RRD", t.RRD}, {"RCDW", t.RCDW}, {"RCDR", t.RCDR},
		{"RAS", t.RAS}, {"RP", t.RP}, {"CL", t.CL}, {"WL", t.WL},
		{"CDLR", t.CDLR}, {"WR", t.WR}, {"CCDL", t.CCDL}, {"WTP", t.WTP}, {"RTP", t.RTP},
	} {
		if v.val <= 0 {
			return fmt.Errorf("config: DRAM timing %s must be positive", v.name)
		}
	}
	return nil
}

// Table1 renders the configuration as the rows of the paper's Table 1,
// for the table1 experiment and for documentation.
func (c Config) Table1() [][2]string {
	t := c.Memory.Timing
	return [][2]string{
		{"GPU Model", "Volta Titan V (modeled)"},
		{"Number of SMs", fmt.Sprintf("%d (%d simulated for PIM kernels)", c.GPU.NumSMs, c.GPU.PIMSMs)},
		{"Core Frequency", fmt.Sprintf("%d MHz", c.GPU.CoreFreqMHz)},
		{"L1 Data Size", fmt.Sprintf("%d KB", c.GPU.L1SizeKB)},
		{"Shared Memory Size", fmt.Sprintf("%d KB", c.GPU.SharedMemKB)},
		{"L2 Size", fmt.Sprintf("%d MB", c.GPU.L2SizeMB)},
		{"L2 Queue Size", fmt.Sprintf("%d", c.GPU.L2QueueSize)},
		{"Memory Scheduler", "FRFCFS"},
		{"R/W Queue Size", fmt.Sprintf("%d", c.GPU.RWQueueSize)},
		{"Interconnect to L2 latency", fmt.Sprintf("%d cycles", c.GPU.InterconnectToL2)},
		{"L2 to DRAM scheduler latency", fmt.Sprintf("%d cycles", c.GPU.L2ToDRAM)},
		{"Memory Model", "HBM"},
		{"Memory Channels", fmt.Sprintf("%d", c.Memory.Channels)},
		{"DRAM Bus Width", fmt.Sprintf("%d B", c.Memory.BusWidthBytes)},
		{"Banks per Channel", fmt.Sprintf("%d", c.Memory.BanksPerChannel)},
		{"Memory Frequency", fmt.Sprintf("%d MHz", c.Memory.MemFreqMHz)},
		{"Memory Timing", fmt.Sprintf(
			"CCD=%d:RRD=%d:RCDW=%d:RAS=%d:RP=%d:CL=%d:WL=%d:CDLR=%d:WR=%d:CCDL=%d:WTP=%d",
			t.CCD, t.RRD, t.RCDW, t.RAS, t.RP, t.CL, t.WL, t.CDLR, t.WR, t.CCDL, t.WTP)},
	}
}
