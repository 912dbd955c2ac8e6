// Package isa defines the fine-grained PIM instruction set of §4.2, the
// memory-pipe request format, and the bit-level OrderLight packet layout
// of Figure 8. Every component of the simulated machine — SMs, the
// interconnect, L2 slices, memory controllers and PIM units — exchanges
// values of these types.
package isa

import "fmt"

// Addr is a physical byte address in the simulated memory space.
type Addr uint64

// Kind classifies a memory-pipe request or warp instruction.
type Kind uint8

const (
	// KindInvalid is the zero Kind and is never valid on the wire.
	KindInvalid Kind = iota

	// KindPIMLoad moves data from an open DRAM row into the PIM unit's
	// temporary storage (Figure 4 line 2). Timing: one column read.
	KindPIMLoad

	// KindPIMCompute fetches an operand from DRAM to the PIM ALU and
	// combines it with a temporary-storage slot (Figure 4 lines 4-5,
	// "Fetch-and-Add"). Timing: one column read.
	KindPIMCompute

	// KindPIMStore moves a result from temporary storage to DRAM
	// (Figure 4 line 7). Timing: one column write.
	KindPIMStore

	// KindPIMScale is an in-place read-modify-write on one column
	// (e.g. the stream Scale kernel a[i] = s*a[i]). Timing: one column
	// write (the internal read is hidden behind the PIM unit).
	KindPIMScale

	// KindPIMExec is a pure ALU operation on temporary storage with no
	// DRAM access (e.g. the per-element compute of KMeans or batchnorm).
	// It consumes a command-bus slot but no bank timing.
	KindPIMExec

	// KindOrderLight is an OrderLight packet (§5.2). It is not a memory
	// access: it percolates through the memory pipe and programs the
	// memory controller's ordering state.
	KindOrderLight

	// KindFence is the core-centric baseline primitive. It never enters
	// the memory pipe; the SM resolves it by stalling (§4.3).
	KindFence

	// KindHostLoad and KindHostStore are ordinary (non-PIM) host
	// accesses used to model concurrent host traffic under fine-grained
	// arbitration (§3.4).
	KindHostLoad
	KindHostStore
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindPIMLoad:
		return "PIM_Load"
	case KindPIMCompute:
		return "PIM_Compute"
	case KindPIMStore:
		return "PIM_Store"
	case KindPIMScale:
		return "PIM_Scale"
	case KindPIMExec:
		return "PIM_Exec"
	case KindOrderLight:
		return "OrderLight"
	case KindFence:
		return "Fence"
	case KindHostLoad:
		return "Host_Load"
	case KindHostStore:
		return "Host_Store"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsPIM reports whether the kind is a PIM command that must reach the
// memory module (everything the ordering machinery applies to).
func (k Kind) IsPIM() bool {
	switch k {
	case KindPIMLoad, KindPIMCompute, KindPIMStore, KindPIMScale, KindPIMExec:
		return true
	}
	return false
}

// IsMemAccess reports whether the kind occupies DRAM bank timing.
func (k Kind) IsMemAccess() bool {
	switch k {
	case KindPIMLoad, KindPIMCompute, KindPIMStore, KindPIMScale, KindHostLoad, KindHostStore:
		return true
	}
	return false
}

// IsWrite reports whether the kind is write-like at the DRAM device
// (routed to the memory controller's write queue).
func (k Kind) IsWrite() bool {
	switch k {
	case KindPIMStore, KindPIMScale, KindHostStore:
		return true
	}
	return false
}

// ALUOp is the operation a PIM compute or exec command performs. The
// simulator executes these functionally over int32 lanes so that
// ordering violations corrupt real results.
type ALUOp uint8

const (
	OpNop   ALUOp = iota
	OpAdd         // dst = ts[src] + operand
	OpMul         // dst = ts[src] * operand
	OpMAC         // dst = ts[src] + imm*operand (Daxpy/Triad fused form)
	OpScale       // in-place: mem = imm * mem (Scale kernel / BN scale)
	OpCopy        // dst = operand (Copy kernel: load-then-store path)
	OpSub         // dst = ts[src] - operand (distance-style kernels)
	OpMax         // dst = max(ts[src], operand) (reduction-style kernels)
	OpXor         // dst = ts[src] ^ operand (hashing/filter kernels)
	OpIncr        // dst = operand + imm (in-memory counter bump, e.g. histogram bins)
)

// String implements fmt.Stringer.
func (o ALUOp) String() string {
	names := [...]string{"nop", "add", "mul", "mac", "scale", "copy", "sub", "max", "xor", "incr"}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("ALUOp(%d)", uint8(o))
}

// Apply computes the op over one int32 lane. ts is the current
// temporary-storage lane value, operand the value fetched from memory,
// imm the kernel's scalar.
func (o ALUOp) Apply(ts, operand, imm int32) int32 {
	switch o {
	case OpNop:
		return ts
	case OpAdd:
		return ts + operand
	case OpMul:
		return ts * operand
	case OpMAC:
		return ts + imm*operand
	case OpScale:
		return imm * operand
	case OpCopy:
		return operand
	case OpSub:
		return ts - operand
	case OpMax:
		if ts > operand {
			return ts
		}
		return operand
	case OpXor:
		return ts ^ operand
	case OpIncr:
		return operand + imm
	default:
		panic(fmt.Sprintf("isa: Apply on unknown op %v", o))
	}
}

// ApplySlot computes dst[l] = o.Apply(ts[l], operand[l], imm) for every
// lane of dst: one dispatch per slot, then a tight loop per op. ts and
// operand must be at least as long as dst. Any of the three may alias
// one another (the PIM unit computes in place with dst == ts, and scales
// a column with ts == operand), because lane l reads only lane l.
func (o ALUOp) ApplySlot(dst, ts, operand []int32, imm int32) {
	ts, operand = ts[:len(dst)], operand[:len(dst)]
	switch o {
	case OpNop:
		copy(dst, ts)
	case OpAdd:
		for l := range dst {
			dst[l] = ts[l] + operand[l]
		}
	case OpMul:
		for l := range dst {
			dst[l] = ts[l] * operand[l]
		}
	case OpMAC:
		for l := range dst {
			dst[l] = ts[l] + imm*operand[l]
		}
	case OpScale:
		for l := range dst {
			dst[l] = imm * operand[l]
		}
	case OpCopy:
		copy(dst, operand)
	case OpSub:
		for l := range dst {
			dst[l] = ts[l] - operand[l]
		}
	case OpMax:
		for l := range dst {
			dst[l] = max(ts[l], operand[l])
		}
	case OpXor:
		for l := range dst {
			dst[l] = ts[l] ^ operand[l]
		}
	case OpIncr:
		for l := range dst {
			dst[l] = operand[l] + imm
		}
	default:
		panic(fmt.Sprintf("isa: ApplySlot on unknown op %v", o))
	}
}

// ApplyScalar computes dst[l] = o.Apply(ts[l], imm, imm) for every lane
// of dst: the form of a PIM exec command, whose operand is its own
// immediate. ts must be at least as long as dst and may alias it. With
// a constant operand, add, MAC and sub all add one constant (int32
// wraps, so ts - imm == ts + -imm even at MinInt32), and the ops that
// ignore ts fill dst with one.
func (o ALUOp) ApplyScalar(dst, ts []int32, imm int32) {
	ts = ts[:len(dst)]
	switch o {
	case OpNop:
		copy(dst, ts)
	case OpAdd:
		addConst(dst, ts, imm)
	case OpMAC:
		addConst(dst, ts, imm*imm)
	case OpSub:
		addConst(dst, ts, -imm)
	case OpMul:
		for l := range dst {
			dst[l] = ts[l] * imm
		}
	case OpMax:
		for l := range dst {
			dst[l] = max(ts[l], imm)
		}
	case OpXor:
		for l := range dst {
			dst[l] = ts[l] ^ imm
		}
	case OpScale:
		fill(dst, imm*imm)
	case OpCopy:
		fill(dst, imm)
	case OpIncr:
		fill(dst, imm+imm)
	default:
		panic(fmt.Sprintf("isa: ApplyScalar on unknown op %v", o))
	}
}

// addConst sets dst[l] = ts[l] + c; ts is as long as dst.
func addConst(dst, ts []int32, c int32) {
	ts = ts[:len(dst)]
	for l := range dst {
		dst[l] = ts[l] + c
	}
}

// fill sets every lane of dst to v.
func fill(dst []int32, v int32) {
	for l := range dst {
		dst[l] = v
	}
}

// Request is one entry traveling down the memory pipe of Figure 6: a
// fine-grained PIM command, a host access, or an OrderLight packet.
//
// Every queue of the model holds Requests by value and hands its head
// out in place, so the type is kept to 64 bytes with no pointer fields:
// the queue buffers are then plain memory the garbage collector never
// scans. config.Validate rejects any configuration a sized field cannot
// hold, and TestRequestLayout pins the size and the absence of pointers.
type Request struct {
	ID   uint64 // globally unique, for tracing and acks
	Seq  uint64 // per-warp program-order sequence number
	Addr Addr   // target of the column access (memory kinds only)

	Kind    Kind
	Op      ALUOp // for PIMCompute/PIMExec/PIMScale
	Channel uint8 // memory channel (fixed at issue; PIM kernels know the mapping, §5.4)
	Group   uint8 // PIM memory-group within the channel
	Bank    uint8 // resolved by address mapping before the MC
	// Copies is used by the copy-and-merge FSM: >0 marks a replica and
	// records how many replicas the merge point must collect.
	Copies uint8

	SM    int16  // issuing SM
	Warp  int16  // issuing warp (global warp ID); -1 for host traffic
	TSlot uint16 // temporary-storage slot (src for store, dst for load/compute)

	Row int32
	Imm int32 // scalar immediate for MAC/Scale

	// OL carries the packet payload when Kind == KindOrderLight.
	OL OLPacket
}

// String renders a compact single-line description for traces.
func (r Request) String() string {
	if r.Kind == KindOrderLight {
		return fmt.Sprintf("req#%d %v %v", r.ID, r.Kind, r.OL)
	}
	return fmt.Sprintf("req#%d %v ch%d g%d b%d row%d addr=0x%x seq=%d",
		r.ID, r.Kind, r.Channel, r.Group, r.Bank, r.Row, uint64(r.Addr), r.Seq)
}

// Instr is one decoded warp instruction of a PIM kernel. A single warp
// instruction uses SIMT lanes to emit Count consecutive PIM commands
// (§6, "Modelling PIM kernels": one warp generates N PIM instructions in
// parallel).
type Instr struct {
	Kind  Kind
	Op    ALUOp
	Addr  Addr  // base address; lane i targets Addr + i*Stride
	Count int   // number of PIM commands this warp instruction emits
	Strd  int64 // byte stride between lanes (usually BytesPerCommand host-visible: 32 B)
	TSlot int   // base TS slot; lane i uses TSlot + i
	Imm   int32
	Group int // memory-group the commands (or the OL packet) target

	// XGroups lists additional memory-groups an OrderLight instruction
	// orders, via the packet's optional extension fields (§5.3.1) —
	// used when one phase's commands span several groups.
	XGroups []uint8
}

// String renders a compact description.
func (in Instr) String() string {
	return fmt.Sprintf("%v x%d @0x%x g%d", in.Kind, in.Count, uint64(in.Addr), in.Group)
}
