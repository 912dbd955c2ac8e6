// Package pim implements the generic, parameterized PIM compute unit
// of §4.1: a SIMD ALU coupled with temporary storage (TS), attached to
// one memory channel. The unit executes fine-grained PIM commands
// functionally over real int32 data in the DRAM backing store, in the
// exact order the memory controller issues them — so a run whose
// ordering is wrong produces wrong bytes, not just wrong statistics.
// That property is what makes Figure 5's "functionally incorrect"
// no-primitive configuration demonstrable rather than asserted.
//
// The bandwidth multiplication factor (BMF) of the unit is embodied in
// the lane width of the store's slots: one command moves 8*BMF int32
// lanes while occupying the channel like a single 32 B column access.
// This is the paper's definition of PIM data bandwidth as command
// bandwidth x BMF (§6), and it is what the Figure 13 BMF sweep varies.
//
// Temporary-storage capacity (Config.PIM.TSBytes) bounds how many
// command slots a tile may use; the TS-fraction axis of Figures 5, 10a
// and 10b sweeps it. The unit keeps no statistics of its own: the
// command taxonomy rows of the experiment tables come from
// stats.Run.CmdsByKind, which the machine counts as it issues each
// command, and each execution is also visible on the channel's "pim"
// track in exported Perfetto traces.
//
// The ALU works slot-wide: Exec dispatches on the command's op once and
// runs a tight loop over all 8*BMF lanes (isa.ALUOp.ApplySlot and
// ApplyScalar). isa.ALUOp.Apply is the per-lane reference those loops
// are tested against.
package pim
