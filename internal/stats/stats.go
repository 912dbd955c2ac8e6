// Package stats collects the measurements the paper reports: execution
// time, core stall cycles, the two PIM metrics defined in §6 (PIM
// command bandwidth in GigaCommands/s and PIM data bandwidth in GB/s),
// and counts of ordering primitives per PIM instruction (Figure 12).
package stats

import (
	"fmt"
	"sort"
	"strings"

	"orderlight/internal/isa"
	"orderlight/internal/sim"
)

// Run accumulates every counter for one simulation. A single Run is
// shared (by pointer) across all components of the simulated machine;
// the simulator is single-threaded so plain fields suffice.
type Run struct {
	// Time bounds of the measured kernel.
	Start sim.Time
	End   sim.Time

	// Core-side counters.
	FenceCount        int64 // fence primitives executed
	OLCount           int64 // OrderLight packets injected
	FenceStallCycles  int64 // core cycles warps spent stalled on fences
	OLStallCycles     int64 // core cycles warps spent waiting to inject OL packets
	IssueStallCycles  int64 // core cycles warps stalled on pipe backpressure
	CreditStallCycles int64 // core cycles warps stalled awaiting seqno credits (§8.1 baseline)
	WarpInstrs        int64 // warp instructions issued (all kinds)

	// Memory-side counters.
	PIMCommands   int64              // PIM commands issued to the memory module
	HostCommands  int64              // host accesses serviced by DRAM
	CmdsByKind    map[isa.Kind]int64 // per request kind
	RowHits       int64
	RowMisses     int64 // column accesses that needed an ACT first
	ActCmds       int64
	PreCmds       int64
	OLMerges      int64 // copy-and-merge completions across the pipe
	OLFlagBlocked int64 // scheduler decisions deferred by an OrderLight flag
	Refreshes     int64 // all-bank refreshes performed (when enabled)

	// Configuration echo needed for derived metrics.
	BytesPerCommand int // 32 B x BMF

	// Correctness of the functional result (set by the verifier).
	Verified  bool
	Correct   bool
	DiffSlots int
}

// New creates an empty Run for the given bytes-per-command.
func New(bytesPerCommand int) *Run {
	return &Run{CmdsByKind: make(map[isa.Kind]int64), BytesPerCommand: bytesPerCommand}
}

// CountCmd records a request issued to the memory module.
func (r *Run) CountCmd(k isa.Kind) {
	r.CmdsByKind[k]++
	if k.IsPIM() {
		r.PIMCommands++
	} else if k.IsMemAccess() {
		r.HostCommands++
	}
}

// ExecTime returns the simulated duration of the run.
func (r *Run) ExecTime() sim.Time { return r.End - r.Start }

// ExecMS returns the simulated duration in milliseconds.
func (r *Run) ExecMS() float64 { return r.ExecTime().Milliseconds() }

// CommandBW returns the PIM command bandwidth in GigaCommands/s (§6).
func (r *Run) CommandBW() float64 {
	secs := r.ExecTime().Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(r.PIMCommands) / secs / 1e9
}

// DataBW returns the PIM data bandwidth in GB/s: command bandwidth times
// the bytes each command moves inside the memory die (§6).
func (r *Run) DataBW() float64 {
	return r.CommandBW() * float64(r.BytesPerCommand)
}

// Primitives returns the total ordering primitives issued.
func (r *Run) Primitives() int64 { return r.FenceCount + r.OLCount }

// PrimitivesPerPIMInstr returns ordering primitives per PIM instruction
// (the line plotted in Figure 12).
func (r *Run) PrimitivesPerPIMInstr() float64 {
	if r.PIMCommands == 0 {
		return 0
	}
	return float64(r.Primitives()) / float64(r.PIMCommands)
}

// WaitCyclesPerFence returns the average core stall per fence (the line
// plotted in Figure 5).
func (r *Run) WaitCyclesPerFence() float64 {
	if r.FenceCount == 0 {
		return 0
	}
	return float64(r.FenceStallCycles) / float64(r.FenceCount)
}

// StallCycles returns all ordering-related core stall cycles.
func (r *Run) StallCycles() int64 {
	return r.FenceStallCycles + r.OLStallCycles + r.CreditStallCycles
}

// RowHitRate returns the fraction of column accesses that hit an open row.
func (r *Run) RowHitRate() float64 {
	total := r.RowHits + r.RowMisses
	if total == 0 {
		return 0
	}
	return float64(r.RowHits) / float64(total)
}

// String renders a multi-line human-readable report.
func (r *Run) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "exec time:            %v (%.3f ms)\n", r.ExecTime(), r.ExecMS())
	fmt.Fprintf(&b, "PIM commands:         %d\n", r.PIMCommands)
	fmt.Fprintf(&b, "command bandwidth:    %.3f GC/s\n", r.CommandBW())
	fmt.Fprintf(&b, "data bandwidth:       %.1f GB/s\n", r.DataBW())
	fmt.Fprintf(&b, "ordering primitives:  %d fence, %d OrderLight (%.4f per PIM instr)\n",
		r.FenceCount, r.OLCount, r.PrimitivesPerPIMInstr())
	fmt.Fprintf(&b, "core stalls:          %d fence cycles (%.1f/fence), %d OL cycles, %d credit, %d backpressure\n",
		r.FenceStallCycles, r.WaitCyclesPerFence(), r.OLStallCycles, r.CreditStallCycles, r.IssueStallCycles)
	fmt.Fprintf(&b, "row hit rate:         %.2f (%d hits / %d misses), %d ACT, %d PRE\n",
		r.RowHitRate(), r.RowHits, r.RowMisses, r.ActCmds, r.PreCmds)
	fmt.Fprintf(&b, "OL merges:            %d; scheduler deferrals under flag: %d\n", r.OLMerges, r.OLFlagBlocked)
	kinds := make([]isa.Kind, 0, len(r.CmdsByKind))
	for k := range r.CmdsByKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %-12v %d\n", k, r.CmdsByKind[k])
	}
	if r.Verified {
		fmt.Fprintf(&b, "functional result:    correct=%v (%d differing slots)\n", r.Correct, r.DiffSlots)
	}
	return b.String()
}
