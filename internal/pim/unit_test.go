package pim

import (
	"bytes"
	"encoding/gob"
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
	for _, r := range execKinds {
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

// BenchmarkUnitExec times one command of each PIM kind at the Table 1
// lane width: 8 x BMF 16 = 128 int32 lanes per slot.
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
}

// TestRestoreFromStateWithExecuted decodes a UnitState gob written while
// the unit still kept a per-kind Executed counter map: gob skips the
// field, so such a checkpoint restores unchanged.
func TestRestoreFromStateWithExecuted(t *testing.T) {
	type oldUnitState struct {
		Slots    [][]int32
		Deferred []DeferredState
		Executed map[isa.Kind]int64
	}
	old := oldUnitState{
		Slots:    [][]int32{{1, 2, 3, 4}, {5, 6, 7, 8}},
		Deferred: []DeferredState{{R: isa.Request{Kind: isa.KindPIMStore, Addr: 2, TSlot: 1}, Due: 40}},
		Executed: map[isa.Kind]int64{isa.KindPIMLoad: 2, isa.KindPIMStore: 1},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	var s UnitState
	if err := gob.NewDecoder(&buf).Decode(&s); err != nil {
		t.Fatal(err)
	}
	u, _ := newTestUnit(2)
	if err := u.Restore(s); err != nil {
		t.Fatal(err)
	}
	if got := u.Slot(1); got[3] != 8 {
		t.Fatalf("slot 1 = %v, want [5 6 7 8]", got)
	}
	if due, ok := u.NextDue(); !ok || due != 40 || u.Deferred() != 1 {
		t.Fatalf("deferred = %d (next due %d, %v), want one due at 40", u.Deferred(), due, ok)
	}
}
