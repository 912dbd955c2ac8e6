package pim

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"orderlight/internal/dram"
	"orderlight/internal/isa"
)

func newTestUnit(nslots int) (*Unit, *dram.Store) {
	st := dram.NewStore(4)
	return NewUnit(0, nslots, st), st
}

func TestUnitVectorAddSequence(t *testing.T) {
	// The Figure 4 vector_add flow on one slot: load a, fetch-and-add b,
	// store c.
	u, st := newTestUnit(2)
	a, b, c := isa.Addr(0), isa.Addr(1), isa.Addr(2)
	st.Write(a, []int32{1, 2, 3, 4})
	st.Write(b, []int32{10, 20, 30, 40})

	steps := []isa.Request{
		{Kind: isa.KindPIMLoad, Addr: a, TSlot: 0},
		{Kind: isa.KindPIMCompute, Op: isa.OpAdd, Addr: b, TSlot: 0},
		{Kind: isa.KindPIMStore, Addr: c, TSlot: 0},
	}
	for _, s := range steps {
		if err := u.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	got := st.Read(c)
	want := []int32{11, 22, 33, 44}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("c = %v, want %v", got, want)
		}
	}
}

func TestUnitScaleRMW(t *testing.T) {
	u, st := newTestUnit(1)
	st.Write(5, []int32{1, 2, 3, 4})
	if err := u.Exec(isa.Request{Kind: isa.KindPIMScale, Op: isa.OpScale, Addr: 5, Imm: 3}); err != nil {
		t.Fatal(err)
	}
	if got := st.Read(5); got[3] != 12 {
		t.Fatalf("scaled = %v, want [3 6 9 12]", got)
	}
}

func TestUnitExecPureALU(t *testing.T) {
	u, st := newTestUnit(1)
	st.Write(0, []int32{5, 5, 5, 5})
	u.Exec(isa.Request{Kind: isa.KindPIMLoad, Addr: 0, TSlot: 0})
	if err := u.Exec(isa.Request{Kind: isa.KindPIMExec, Op: isa.OpAdd, TSlot: 0, Imm: 7}); err != nil {
		t.Fatal(err)
	}
	if got := u.Slot(0); got[0] != 12 {
		t.Fatalf("slot = %v, want all 12", got)
	}
}

func TestUnitMACCompute(t *testing.T) {
	// Triad: c = a + s*b via load a then MAC b.
	u, st := newTestUnit(1)
	st.Write(0, []int32{1, 1, 1, 1})
	st.Write(1, []int32{2, 3, 4, 5})
	u.Exec(isa.Request{Kind: isa.KindPIMLoad, Addr: 0, TSlot: 0})
	u.Exec(isa.Request{Kind: isa.KindPIMCompute, Op: isa.OpMAC, Addr: 1, TSlot: 0, Imm: 10})
	u.Exec(isa.Request{Kind: isa.KindPIMStore, Addr: 2, TSlot: 0})
	if got := st.Read(2); got[3] != 51 {
		t.Fatalf("triad result = %v, want [21 31 41 51]", got)
	}
}

func TestUnitErrors(t *testing.T) {
	u, _ := newTestUnit(1)
	if err := u.Exec(isa.Request{Kind: isa.KindPIMLoad, TSlot: 1}); err == nil {
		t.Error("out-of-range TS slot accepted")
	}
	if err := u.Exec(isa.Request{Kind: isa.KindPIMLoad, Channel: 3}); err == nil {
		t.Error("wrong-channel command accepted")
	}
	if err := u.Exec(isa.Request{Kind: isa.KindOrderLight}); err == nil {
		t.Error("OrderLight accepted as executable command")
	}
	if err := u.Exec(isa.Request{Kind: isa.KindHostLoad}); err == nil {
		t.Error("host access accepted by PIM unit")
	}
}

func TestUnitSlotIsolation(t *testing.T) {
	u, st := newTestUnit(2)
	st.Write(0, []int32{9, 9, 9, 9})
	u.Exec(isa.Request{Kind: isa.KindPIMLoad, Addr: 0, TSlot: 0})
	got := u.Slot(0)
	got[0] = -1
	if u.Slot(0)[0] != 9 {
		t.Fatal("Slot() must return a copy")
	}
	if u.Slot(1)[0] != 0 {
		t.Fatal("unrelated slot contaminated")
	}
}

func TestReplayMatchesManualExecution(t *testing.T) {
	// Replay on a cloned store must produce the same final state as
	// manual Exec on the original.
	st := dram.NewStore(4)
	st.Write(0, []int32{1, 2, 3, 4})
	st.Write(1, []int32{5, 6, 7, 8})
	reqs := []isa.Request{
		{Kind: isa.KindPIMLoad, Addr: 0, TSlot: 0},
		{Kind: isa.KindOrderLight}, // skipped functionally
		{Kind: isa.KindPIMCompute, Op: isa.OpAdd, Addr: 1, TSlot: 0},
		{Kind: isa.KindFence}, // skipped functionally
		{Kind: isa.KindPIMStore, Addr: 2, TSlot: 0},
		{Kind: isa.KindHostLoad, Addr: 0}, // ignored
	}
	ref := st.Clone()
	if err := Replay(ref, 0, 1, reqs); err != nil {
		t.Fatal(err)
	}
	u := NewUnit(0, 1, st)
	for _, r := range reqs {
		if r.Kind.IsPIM() {
			if err := u.Exec(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !st.Equal(ref) {
		t.Fatalf("replay diverged from manual execution: %v", st.Diff(ref, 4))
	}
}

// TestReplayOrderSensitivityProperty: swapping a dependent pair (a load
// into a slot and the store of that slot) changes the result whenever
// the loaded values differ — demonstrating that the functional model
// actually detects reorderings.
func TestReplayOrderSensitivityProperty(t *testing.T) {
	f := func(av, bv int32) bool {
		if av == bv {
			return true // identical data cannot expose reordering
		}
		mk := func() *dram.Store {
			st := dram.NewStore(4)
			st.Write(0, []int32{av, av, av, av})
			st.Write(1, []int32{bv, bv, bv, bv})
			return st
		}
		prog := []isa.Request{
			{Kind: isa.KindPIMLoad, Addr: 0, TSlot: 0},
			{Kind: isa.KindPIMStore, Addr: 2, TSlot: 0},
			{Kind: isa.KindPIMLoad, Addr: 1, TSlot: 0}, // next tile reuses the slot
			{Kind: isa.KindPIMStore, Addr: 3, TSlot: 0},
		}
		good := mk()
		if err := Replay(good, 0, 1, prog); err != nil {
			return false
		}
		// Reorder: the second tile's load overtakes the first tile's
		// store (the exact hazard OrderLight exists to prevent).
		bad := mk()
		reordered := []isa.Request{prog[0], prog[2], prog[1], prog[3]}
		if err := Replay(bad, 0, 1, reordered); err != nil {
			return false
		}
		return !good.Equal(bad)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// execKinds is one command of each PIM kind over written slots 0..3.
var execKinds = []isa.Request{
	{Kind: isa.KindPIMLoad, Addr: 0, TSlot: 0},
	{Kind: isa.KindPIMCompute, Op: isa.OpAdd, Addr: 1, TSlot: 0},
	{Kind: isa.KindPIMExec, Op: isa.OpMul, TSlot: 0, Imm: 3},
	{Kind: isa.KindPIMStore, Addr: 2, TSlot: 0},
	{Kind: isa.KindPIMScale, Op: isa.OpScale, Addr: 3, Imm: 1},
}

// newExecUnit returns a unit of the given lane width whose slots 0..3
// are written.
func newExecUnit(lanes int) *Unit {
	st := dram.NewStore(lanes)
	v := make([]int32, lanes)
	for l := range v {
		v[l] = int32(l + 1)
	}
	for a := isa.Addr(0); a < 4; a++ {
		st.Write(a, v)
	}
	return NewUnit(0, 2, st)
}

func TestUnitExecAllocs(t *testing.T) {
	u := newExecUnit(4)
	for _, r := range append(execKinds, execChain...) {
		n := testing.AllocsPerRun(100, func() {
			if err := u.Exec(r); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Errorf("Exec of %v on written slots allocated %.1f/op, want 0", r.Kind, n)
		}
	}
}

// execChain is bn_fwd's per-slot shape: a load, an exec chain of
// multiplies then adds, and the store of the result.
var execChain = []isa.Request{
	{Kind: isa.KindPIMLoad, Addr: 0, TSlot: 0},
	{Kind: isa.KindPIMExec, Op: isa.OpMul, TSlot: 0, Imm: 2},
	{Kind: isa.KindPIMExec, Op: isa.OpMul, TSlot: 0, Imm: 2},
	{Kind: isa.KindPIMExec, Op: isa.OpMul, TSlot: 0, Imm: 2},
	{Kind: isa.KindPIMExec, Op: isa.OpAdd, TSlot: 0, Imm: 5},
	{Kind: isa.KindPIMExec, Op: isa.OpAdd, TSlot: 0, Imm: 5},
	{Kind: isa.KindPIMExec, Op: isa.OpAdd, TSlot: 0, Imm: 5},
	{Kind: isa.KindPIMStore, Addr: 2, TSlot: 0},
}

// BenchmarkUnitExec times one command of each PIM kind at the Table 1
// lane width: 8 x BMF 16 = 128 int32 lanes per slot. PIM_ExecChain
// times one whole execChain per op.
func BenchmarkUnitExec(b *testing.B) {
	for _, r := range execKinds {
		b.Run(r.Kind.String(), func(b *testing.B) {
			u := newExecUnit(128)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := u.Exec(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("PIM_ExecChain", func(b *testing.B) {
		u := newExecUnit(128)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range execChain {
				if err := u.Exec(r); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// laneModel is the per-lane reference the unit is checked against: TS
// slots and memory as plain lane arrays, every ALU step one
// isa.ALUOp.Apply per lane.
type laneModel struct {
	slots [][]int32
	mem   map[isa.Addr][]int32
	lanes int
}

func (m *laneModel) read(a isa.Addr) []int32 {
	if v, ok := m.mem[a]; ok {
		return v
	}
	return make([]int32, m.lanes)
}

func (m *laneModel) exec(r isa.Request) {
	switch r.Kind {
	case isa.KindPIMLoad:
		m.slots[r.TSlot] = slices.Clone(m.read(r.Addr))
	case isa.KindPIMCompute:
		ts, operand := m.slots[r.TSlot], m.read(r.Addr)
		for l := range ts {
			ts[l] = r.Op.Apply(ts[l], operand[l], r.Imm)
		}
	case isa.KindPIMStore:
		m.mem[r.Addr] = slices.Clone(m.slots[r.TSlot])
	case isa.KindPIMScale:
		old, v := m.read(r.Addr), make([]int32, m.lanes)
		for l := range v {
			v[l] = r.Op.Apply(old[l], old[l], r.Imm)
		}
		m.mem[r.Addr] = v
	case isa.KindPIMExec:
		ts := m.slots[r.TSlot]
		for l := range ts {
			ts[l] = r.Op.Apply(ts[l], r.Imm, r.Imm)
		}
	}
}

// TestUnitMatchesPerLaneModel runs seeded random command streams
// through Unit.Exec and the per-lane model side by side: every op, exec
// chains of up to 12 commands on one slot (so lazily composed ones
// settle at every kind of reader), loads, computes, stores and scales
// interleaved with them, Slot reads and Resets in the middle of chains,
// immediates at 0, ±1, MinInt32 and MaxInt32 (int32 overflow in both
// the lanes and the composed chain), at 1, 4 and 128 lanes.
func TestUnitMatchesPerLaneModel(t *testing.T) {
	allOps := []isa.ALUOp{isa.OpNop, isa.OpAdd, isa.OpMul, isa.OpMAC, isa.OpScale,
		isa.OpCopy, isa.OpSub, isa.OpMax, isa.OpXor, isa.OpIncr}
	const nslots, naddrs = 3, 6
	for _, lanes := range []int{1, 4, 128} {
		for seed := uint64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(lanes)))
			imm := func() int32 {
				switch rng.IntN(8) {
				case 0:
					return 0
				case 1:
					return 1
				case 2:
					return -1
				case 3:
					return math.MinInt32
				case 4:
					return math.MaxInt32
				default:
					return int32(rng.Uint32())
				}
			}
			st := dram.NewStore(lanes)
			m := &laneModel{slots: make([][]int32, nslots), mem: map[isa.Addr][]int32{}, lanes: lanes}
			for i := range m.slots {
				m.slots[i] = make([]int32, lanes)
			}
			for a := isa.Addr(0); a < naddrs; a++ {
				v := make([]int32, lanes)
				for l := range v {
					v[l] = imm()
				}
				st.Write(a, v)
				m.mem[a] = slices.Clone(v)
			}
			u := NewUnit(0, nslots, st)
			step := func(r isa.Request) {
				t.Helper()
				if err := u.Exec(r); err != nil {
					t.Fatal(err)
				}
				m.exec(r)
			}
			checkSlot := func(i int, where string) {
				t.Helper()
				if got := u.Slot(i); !slices.Equal(got, m.slots[i]) {
					t.Fatalf("lanes %d seed %d: slot %d %s = %v, want %v", lanes, seed, i, where, got, m.slots[i])
				}
			}
			for range 300 {
				slot := uint16(rng.IntN(nslots))
				addr := isa.Addr(rng.IntN(naddrs))
				op := allOps[rng.IntN(len(allOps))]
				switch rng.IntN(7) {
				case 0:
					step(isa.Request{Kind: isa.KindPIMLoad, Addr: addr, TSlot: slot})
				case 1:
					step(isa.Request{Kind: isa.KindPIMCompute, Op: op, Addr: addr, TSlot: slot, Imm: imm()})
				case 2:
					step(isa.Request{Kind: isa.KindPIMStore, Addr: addr, TSlot: slot})
				case 3:
					step(isa.Request{Kind: isa.KindPIMScale, Op: op, Addr: addr, Imm: imm()})
				case 4:
					checkSlot(int(slot), "read mid-stream")
				case 5:
					if rng.IntN(10) == 0 {
						u.Reset(0, nslots, st)
						for i := range m.slots {
							m.slots[i] = make([]int32, lanes)
						}
					}
				default:
					// An exec chain on one slot, mostly affine ops.
					for range 1 + rng.IntN(12) {
						op := allOps[rng.IntN(len(allOps))]
						if rng.IntN(4) > 0 {
							op = []isa.ALUOp{isa.OpAdd, isa.OpMul, isa.OpSub, isa.OpMAC}[rng.IntN(4)]
						}
						step(isa.Request{Kind: isa.KindPIMExec, Op: op, TSlot: slot, Imm: imm()})
					}
				}
			}
			for i := range nslots {
				checkSlot(i, "at the end")
			}
			for a := isa.Addr(0); a < naddrs; a++ {
				if got, want := st.Read(a), m.read(a); !slices.Equal(got, want) {
					t.Fatalf("lanes %d seed %d: memory %d = %v, want %v", lanes, seed, a, got, want)
				}
			}
		}
	}
}

// TestUnitExecChainEdges pins exec chains whose composition overflows
// or annihilates: Mul by 0, -1 and MinInt32, and Add past MaxInt32,
// against per-lane Apply.
func TestUnitExecChainEdges(t *testing.T) {
	chains := [][]isa.Request{
		{{Op: isa.OpMul, Imm: 0}, {Op: isa.OpAdd, Imm: 7}},
		{{Op: isa.OpMul, Imm: -1}, {Op: isa.OpSub, Imm: math.MinInt32}},
		{{Op: isa.OpMul, Imm: math.MinInt32}, {Op: isa.OpMul, Imm: 2}, {Op: isa.OpAdd, Imm: 1}},
		{{Op: isa.OpAdd, Imm: math.MaxInt32}, {Op: isa.OpAdd, Imm: 1}, {Op: isa.OpMAC, Imm: math.MaxInt32}},
		{{Op: isa.OpMul, Imm: 3}, {Op: isa.OpXor, Imm: 0}, {Op: isa.OpMax, Imm: math.MinInt32}, {Op: isa.OpMul, Imm: 5}},
		{{Op: isa.OpAdd, Imm: 9}, {Op: isa.OpMax, Imm: 4}, {Op: isa.OpXor, Imm: -1}, {Op: isa.OpIncr, Imm: 2}, {Op: isa.OpAdd, Imm: 1}},
		{{Op: isa.OpCopy, Imm: 5}, {Op: isa.OpMul, Imm: math.MaxInt32}, {Op: isa.OpScale, Imm: -3}, {Op: isa.OpNop}},
	}
	in := []int32{math.MinInt32, math.MaxInt32, -1, 0, 1, math.MinInt32 + 1, math.MaxInt32 - 1, 12345}
	for ci, chain := range chains {
		st := dram.NewStore(len(in))
		st.Write(0, in)
		u := NewUnit(0, 1, st)
		if err := u.Exec(isa.Request{Kind: isa.KindPIMLoad, Addr: 0}); err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(in)
		for _, r := range chain {
			r.Kind = isa.KindPIMExec
			if err := u.Exec(r); err != nil {
				t.Fatal(err)
			}
			for l := range want {
				want[l] = r.Op.Apply(want[l], r.Imm, r.Imm)
			}
		}
		if err := u.Exec(isa.Request{Kind: isa.KindPIMStore, Addr: 1}); err != nil {
			t.Fatal(err)
		}
		if got := st.Read(1); !slices.Equal(got, want) {
			t.Errorf("chain %d: stored %v, want %v", ci, got, want)
		}
	}
}
