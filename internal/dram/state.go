package dram

import (
	"fmt"
	"math/bits"

	"orderlight/internal/isa"
)

// This file is the dram layer's checkpoint surface: exported snapshot
// structs plus State/Restore pairs for the per-channel Timing checker
// and the functional Store.

// BankState is one bank's timing state.
type BankState struct {
	OpenRow int
	NextACT int64
	NextPRE int64
	NextRD  int64
	NextWR  int64
}

// TimingState is the Timing checker's checkpointable state: per-bank
// row/command timing plus the channel-global spacing trackers. The
// timing parameters themselves are configuration, not state.
type TimingState struct {
	Banks        []BankState
	LastACT      int64
	LastCol      int64
	LastColBank  int
	LastColWrite bool
	AnyCol       bool
	AnyACT       bool
}

// State captures the full timing state of the channel.
func (tm *Timing) State() TimingState {
	s := TimingState{
		Banks:        make([]BankState, len(tm.banks)),
		LastACT:      tm.lastACT,
		LastCol:      tm.lastCol,
		LastColBank:  tm.lastColBank,
		LastColWrite: tm.lastColWrite,
		AnyCol:       tm.anyCol,
		AnyACT:       tm.anyACT,
	}
	for i, b := range tm.banks {
		s.Banks[i] = BankState{OpenRow: b.openRow, NextACT: b.nextACT, NextPRE: b.nextPRE, NextRD: b.nextRD, NextWR: b.nextWR}
	}
	return s
}

// Restore replaces the timing state with the snapshot.
func (tm *Timing) Restore(s TimingState) error {
	if len(s.Banks) != len(tm.banks) {
		return fmt.Errorf("dram: snapshot has %d banks, channel has %d", len(s.Banks), len(tm.banks))
	}
	for i, b := range s.Banks {
		tm.banks[i] = bank{openRow: b.OpenRow, nextACT: b.NextACT, nextPRE: b.NextPRE, nextRD: b.NextRD, nextWR: b.NextWR}
	}
	tm.lastACT = s.LastACT
	tm.lastCol = s.LastCol
	tm.lastColBank = s.LastColBank
	tm.lastColWrite = s.LastColWrite
	tm.anyCol = s.AnyCol
	tm.anyACT = s.AnyACT
	return nil
}

// StoreState is the Store's checkpointable state: the lane width and a
// deep copy of every written slot. It is keyed by slot, not by page, so
// the encoding does not depend on the store's internal layout.
type StoreState struct {
	Lanes int
	Data  map[isa.Addr][]int32
}

// State deep-copies the written slots of the store.
func (s *Store) State() StoreState {
	st := StoreState{Lanes: s.lanes, Data: make(map[isa.Addr][]int32, s.touched)}
	buf := make([]int32, s.touched*s.lanes)
	for i := range s.pages {
		p := &s.pages[i]
		for w := p.written; w != 0; w &= w - 1 {
			off := bits.TrailingZeros64(w)
			v := buf[:s.lanes:s.lanes]
			buf = buf[s.lanes:]
			copy(v, s.lanesOf(p, off))
			st.Data[p.key<<pageShift|isa.Addr(off)] = v
		}
	}
	return st
}

// Restore replaces the store contents with the snapshot, in place, so
// every component sharing the store pointer sees the restored image. A
// malformed snapshot leaves the store unchanged.
func (s *Store) Restore(st StoreState) error {
	if st.Lanes != s.lanes {
		return fmt.Errorf("dram: snapshot store has %d lanes, store has %d", st.Lanes, s.lanes)
	}
	for a, v := range st.Data {
		if len(v) != s.lanes {
			return fmt.Errorf("dram: snapshot slot %d has %d lanes, store has %d", a, len(v), s.lanes)
		}
	}
	s.index = make(map[isa.Addr]int)
	s.pages = nil
	s.touched = 0
	for a, v := range st.Data {
		copy(s.slot(a), v)
	}
	return nil
}
