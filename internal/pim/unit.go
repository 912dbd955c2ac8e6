package pim

import (
	"fmt"

	"orderlight/internal/dram"
	"orderlight/internal/isa"
)

// Unit is one PIM compute unit. It is not safe for concurrent use; the
// simulator drives it from the single-threaded event loop.
type Unit struct {
	channel int
	lanes   int
	slots   [][]int32 // views into one slab
	scratch []int32   // PIM_Scale result buffer, after the slots in the slab
	store   *dram.Store

	// deferred holds commands whose functional execution has been
	// pushed into the future (fault injection: delayed write-back
	// visibility). Entries are appended in issue order with a constant
	// per-plan lag, so due times are non-decreasing and RunDue drains
	// from the front.
	deferred []deferredCmd
}

// deferredCmd is one command awaiting deferred execution.
type deferredCmd struct {
	r   isa.Request
	due int64 // memory cycle at which the command becomes visible
}

// NewUnit creates a PIM unit with nslots temporary-storage slots over
// the given backing store.
func NewUnit(channel, nslots int, store *dram.Store) *Unit {
	lanes := store.Lanes()
	slab := make([]int32, (nslots+1)*lanes)
	u := &Unit{
		channel: channel,
		lanes:   lanes,
		slots:   make([][]int32, nslots),
		scratch: slab[nslots*lanes:],
		store:   store,
	}
	for i := range u.slots {
		u.slots[i] = slab[i*lanes : (i+1)*lanes : (i+1)*lanes]
	}
	return u
}

// Slots returns the temporary-storage capacity in slots.
func (u *Unit) Slots() int { return len(u.slots) }

// Slot returns a copy of a TS slot's contents, for tests.
func (u *Unit) Slot(i int) []int32 {
	out := make([]int32, u.lanes)
	copy(out, u.slots[i])
	return out
}

// Exec executes one fine-grained PIM command. It returns an error for
// malformed commands (wrong channel, bad TS slot, non-PIM kind); the
// simulator treats such an error as a fatal modeling bug.
func (u *Unit) Exec(r isa.Request) error {
	if int(r.Channel) != u.channel {
		return fmt.Errorf("pim: command for channel %d reached unit of channel %d", r.Channel, u.channel)
	}
	if r.Kind != isa.KindPIMScale && r.Kind.IsPIM() {
		if int(r.TSlot) >= len(u.slots) {
			return fmt.Errorf("pim: TS slot %d out of range [0,%d) for %v", r.TSlot, len(u.slots), r)
		}
	}
	switch r.Kind {
	case isa.KindPIMLoad:
		copy(u.slots[r.TSlot], u.store.Read(r.Addr))
	case isa.KindPIMCompute:
		slot := u.slots[r.TSlot]
		r.Op.ApplySlot(slot, slot, u.store.Read(r.Addr), r.Imm)
	case isa.KindPIMStore:
		u.store.Write(r.Addr, u.slots[r.TSlot])
	case isa.KindPIMScale:
		old := u.store.Read(r.Addr)
		r.Op.ApplySlot(u.scratch, old, old, r.Imm)
		u.store.Write(r.Addr, u.scratch)
	case isa.KindPIMExec:
		slot := u.slots[r.TSlot]
		r.Op.ApplyScalar(slot, slot, r.Imm)
	default:
		return fmt.Errorf("pim: unit cannot execute %v", r.Kind)
	}
	return nil
}

// Defer queues r to execute functionally at memory cycle due instead of
// now — the fault injector's delayed-visibility hook. The command has
// already been acknowledged upstream; only its state change lags.
func (u *Unit) Defer(r isa.Request, due int64) {
	u.deferred = append(u.deferred, deferredCmd{r: r, due: due})
}

// RunDue executes every deferred command whose due cycle has arrived,
// in deferral order.
func (u *Unit) RunDue(cycle int64) error {
	for len(u.deferred) > 0 && u.deferred[0].due <= cycle {
		d := u.deferred[0]
		copy(u.deferred, u.deferred[1:])
		u.deferred = u.deferred[:len(u.deferred)-1]
		if err := u.Exec(d.r); err != nil {
			return err
		}
	}
	return nil
}

// Deferred returns the number of commands awaiting deferred execution.
func (u *Unit) Deferred() int { return len(u.deferred) }

// NextDue returns the earliest due cycle among deferred commands, or
// false when none are pending.
func (u *Unit) NextDue() (int64, bool) {
	if len(u.deferred) == 0 {
		return 0, false
	}
	return u.deferred[0].due, true
}

// Replay executes a command sequence in the given (program) order on a
// fresh PIM unit over the store. It is the reference executor used to
// compute golden results: running the same commands through the full
// simulator must leave the store in the same state whenever the ordering
// primitive did its job.
func Replay(store *dram.Store, channel, nslots int, reqs []isa.Request) error {
	u := NewUnit(channel, nslots, store)
	for _, r := range reqs {
		if r.Kind == isa.KindOrderLight || r.Kind == isa.KindFence {
			continue // ordering primitives are no-ops functionally
		}
		if !r.Kind.IsPIM() {
			continue // host traffic does not touch PIM state
		}
		if err := u.Exec(r); err != nil {
			return err
		}
	}
	return nil
}
