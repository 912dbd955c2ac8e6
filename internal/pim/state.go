package pim

import (
	"fmt"

	"orderlight/internal/isa"
)

// UnitState is a PIM unit's checkpointable state: the temporary-storage
// slots and the deferred-execution queue. The backing store is
// checkpointed separately (it is shared machine-wide), so UnitState
// deliberately excludes it. Version-2 checkpoints written before the
// per-kind execution counter was dropped still carry an Executed field;
// gob skips it on decode.
type UnitState struct {
	Slots    [][]int32
	Deferred []DeferredState
}

// DeferredState is one deferred command and its due cycle.
type DeferredState struct {
	R   isa.Request
	Due int64
}

// State deep-copies the unit's mutable state.
func (u *Unit) State() UnitState {
	s := UnitState{Slots: make([][]int32, len(u.slots))}
	for i, sl := range u.slots {
		s.Slots[i] = append([]int32(nil), sl...)
	}
	for _, d := range u.deferred {
		s.Deferred = append(s.Deferred, DeferredState{R: d.r, Due: d.due})
	}
	return s
}

// Restore replaces the unit's mutable state with the snapshot.
func (u *Unit) Restore(s UnitState) error {
	if len(s.Slots) != len(u.slots) {
		return fmt.Errorf("pim: snapshot has %d TS slots, unit has %d", len(s.Slots), len(u.slots))
	}
	for i, sl := range s.Slots {
		if len(sl) != u.lanes {
			return fmt.Errorf("pim: snapshot TS slot %d has %d lanes, unit has %d", i, len(sl), u.lanes)
		}
		copy(u.slots[i], sl)
	}
	u.deferred = u.deferred[:0]
	for _, d := range s.Deferred {
		u.deferred = append(u.deferred, deferredCmd{r: d.R, due: d.Due})
	}
	return nil
}
