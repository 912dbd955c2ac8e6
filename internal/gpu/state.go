package gpu

import (
	"fmt"

	"orderlight/internal/cache"
	"orderlight/internal/core"
	"orderlight/internal/dram"
	"orderlight/internal/fault"
	"orderlight/internal/isa"
	"orderlight/internal/memctrl"
	"orderlight/internal/noc"
	"orderlight/internal/sim"
	"orderlight/internal/stats"
)

// This file is the machine's checkpoint surface. CaptureState is legal
// only between engine steps (the checkpoint hook runs there), where no
// clock edge is half-fired and every component's state is complete —
// the epoch-safe boundary the checkpoint format's determinism guarantee
// rests on. RestoreState rebuilds that state onto a freshly constructed
// machine of the same configuration and programs; the continuation then
// reproduces the uninterrupted run's event sequence exactly.

// WarpSnap is one warp's (or OoO thread's) program-cursor state.
type WarpSnap struct {
	PC       int
	Lane     int
	State    uint8
	PktNum   uint32
	Seq      uint64
	StallAcc int64
}

// CollectorEntryState is one operand-collector entry in flight.
type CollectorEntryState struct {
	R     isa.Request
	Ready sim.Time
}

// SMState is one SM's checkpointable state.
type SMState struct {
	RR        int
	Warps     []WarpSnap
	Collector []CollectorEntryState
	LDST      []isa.Request
	CC        core.CollectorCounterState
}

// OoOState is one OoO core's checkpointable state.
type OoOState struct {
	W      WarpSnap
	Window []isa.Request
	RS     core.CollectorCounterState
	Rng    uint64
}

// HeldState is one coarse-arbitration-held host load.
type HeldState struct {
	Ch      int
	Desired sim.Time
}

// HostTrafficState is the synthetic host-traffic injector's state.
type HostTrafficState struct {
	Left    []int
	Pending int
	Sent    map[uint64]sim.Time
	Latency sim.Time
	Served  int64
	Held    []HeldState
	Rng     uint64
}

// MachineState is the complete mutable state of a machine between
// engine steps. Optional subsystems (host traffic, fault plan, sampler)
// snapshot as nil pointers when unarmed; restore requires the same
// subsystems armed on the target machine.
type MachineState struct {
	Engine sim.EngineState
	Stats  stats.Run
	Store  dram.StoreState
	NextID uint64
	Fence  []int
	Acks   sim.PipeState[int]
	SMs    []SMState
	Cores  []OoOState
	Icnt   []noc.LinkState
	Slices []cache.SliceState
	L2DRAM []sim.PipeState[isa.Request]
	MCs    []memctrl.ControllerState

	Traffic *HostTrafficState
	Fault   *fault.PointCounts
	Sampler *stats.SamplerState
}

func snapWarp(w *warp) WarpSnap {
	return WarpSnap{PC: w.pc, Lane: w.lane, State: uint8(w.state), PktNum: w.pktNum, Seq: w.seq, StallAcc: w.stallAcc}
}

func restoreWarp(w *warp, s WarpSnap) error {
	if s.PC < 0 || s.PC > len(w.prog) {
		return fmt.Errorf("gpu: snapshot warp %d pc %d outside program of %d instructions", w.id, s.PC, len(w.prog))
	}
	if s.State > uint8(warpDone) {
		return fmt.Errorf("gpu: snapshot warp %d has unknown state %d", w.id, s.State)
	}
	w.pc, w.lane = s.PC, s.Lane
	w.state = warpState(s.State)
	w.pktNum, w.seq, w.stallAcc = s.PktNum, s.Seq, s.StallAcc
	return nil
}

func (s *SM) state() SMState {
	st := SMState{RR: s.rr, CC: s.cc.State(), LDST: s.ldst.State()}
	for _, w := range s.warps {
		st.Warps = append(st.Warps, snapWarp(w))
	}
	for _, e := range s.collector {
		st.Collector = append(st.Collector, CollectorEntryState{R: e.r, Ready: e.ready})
	}
	return st
}

func (s *SM) restore(st SMState) error {
	if len(st.Warps) != len(s.warps) {
		return fmt.Errorf("gpu: snapshot SM %d has %d warps, SM has %d", s.id, len(st.Warps), len(s.warps))
	}
	if st.RR < 0 || st.RR >= len(s.warps) {
		return fmt.Errorf("gpu: snapshot SM %d warp cursor %d out of range", s.id, st.RR)
	}
	if len(st.Collector) > cap(s.collector) {
		return fmt.Errorf("gpu: snapshot SM %d has %d collector entries, capacity is %d", s.id, len(st.Collector), cap(s.collector))
	}
	for i, w := range s.warps {
		if err := restoreWarp(w, st.Warps[i]); err != nil {
			return err
		}
	}
	s.rr = st.RR
	s.collector = s.collector[:0]
	for _, e := range st.Collector {
		s.collector = append(s.collector, collectorEntry{r: e.R, ready: e.Ready})
	}
	if err := s.ldst.Restore(st.LDST); err != nil {
		return err
	}
	return s.cc.Restore(st.CC)
}

func (c *OoOCore) state() OoOState {
	return OoOState{
		W:      snapWarp(&c.w),
		Window: append([]isa.Request(nil), c.window...),
		RS:     c.rs.State(),
		Rng:    c.rng.State(),
	}
}

func (c *OoOCore) restore(st OoOState) error {
	if err := restoreWarp(&c.w, st.W); err != nil {
		return err
	}
	if len(st.Window) > c.cfg.Host.ROBSize {
		return fmt.Errorf("gpu: snapshot core %d has %d window entries, ROB holds %d", c.id, len(st.Window), c.cfg.Host.ROBSize)
	}
	c.window = append(c.window[:0], st.Window...)
	c.rng.SetState(st.Rng)
	return c.rs.Restore(st.RS)
}

// CaptureState snapshots the machine's complete mutable state. It must
// only be called between engine steps (never from inside a tick) — the
// checkpoint hook and the post-halt path satisfy this by construction.
func (m *Machine) CaptureState() *MachineState {
	s := &MachineState{
		Engine: m.eng.State(),
		Stats:  m.st.Snapshot(),
		Store:  m.store.State(),
		NextID: m.nextID,
		Fence:  m.ft.State(),
		Acks:   m.acks.State(),
	}
	for _, h := range m.hosts {
		switch h := h.(type) {
		case *SM:
			s.SMs = append(s.SMs, h.state())
		case *OoOCore:
			s.Cores = append(s.Cores, h.state())
		}
	}
	for ch := range m.icnt {
		s.Icnt = append(s.Icnt, m.icnt[ch].State())
		s.Slices = append(s.Slices, m.slices[ch].State())
		s.L2DRAM = append(s.L2DRAM, m.l2dram[ch].State())
		s.MCs = append(s.MCs, m.mcs[ch].State())
	}
	if m.host.PerChannel != 0 {
		ts := HostTrafficState{
			Left:    append([]int(nil), m.hostLeft...),
			Pending: m.hostPending,
			Sent:    make(map[uint64]sim.Time, len(m.hostSent)),
			Latency: m.hostLatency,
			Served:  m.hostServed,
			Held:    make([]HeldState, 0, len(m.hostHeld)),
			Rng:     m.hostRng.State(),
		}
		for id, t := range m.hostSent {
			ts.Sent[id] = t
		}
		for _, h := range m.hostHeld {
			ts.Held = append(ts.Held, HeldState{Ch: h.ch, Desired: h.desired})
		}
		s.Traffic = &ts
	}
	if m.fplan != nil {
		c := m.fplan.Counts()
		s.Fault = &c
	}
	if m.sampler != nil {
		ss := m.sampler.State()
		s.Sampler = &ss
	}
	return s
}

// RestoreState rewinds the machine to a captured state. The machine
// must be freshly built from the same configuration and programs, with
// the same optional subsystems (host traffic, fault plan, sampler)
// armed; any structural disagreement is an error and the machine must
// not be run afterwards. After a successful restore, Run continues the
// original run's event sequence exactly.
func (m *Machine) RestoreState(s *MachineState) error {
	var sms []*SM
	var cores []*OoOCore
	for _, h := range m.hosts {
		switch h := h.(type) {
		case *SM:
			sms = append(sms, h)
		case *OoOCore:
			cores = append(cores, h)
		}
	}
	switch {
	case len(s.SMs) != len(sms):
		return fmt.Errorf("gpu: snapshot has %d SMs, machine has %d", len(s.SMs), len(sms))
	case len(s.Cores) != len(cores):
		return fmt.Errorf("gpu: snapshot has %d OoO cores, machine has %d", len(s.Cores), len(cores))
	case len(s.Icnt) != len(m.icnt) || len(s.Slices) != len(m.slices) ||
		len(s.L2DRAM) != len(m.l2dram) || len(s.MCs) != len(m.mcs):
		return fmt.Errorf("gpu: snapshot has %d channels, machine has %d", len(s.MCs), len(m.mcs))
	case (s.Traffic != nil) != (m.host.PerChannel != 0):
		return fmt.Errorf("gpu: snapshot and machine disagree on host traffic (snapshot %t, machine %t)",
			s.Traffic != nil, m.host.PerChannel != 0)
	case (s.Fault != nil) != (m.fplan != nil):
		return fmt.Errorf("gpu: snapshot and machine disagree on fault plan (snapshot %t, machine %t)",
			s.Fault != nil, m.fplan != nil)
	case (s.Sampler != nil) != (m.sampler != nil):
		return fmt.Errorf("gpu: snapshot and machine disagree on sampler (snapshot %t, machine %t)",
			s.Sampler != nil, m.sampler != nil)
	}
	if err := m.eng.Restore(s.Engine); err != nil {
		return err
	}
	m.st.RestoreFrom(s.Stats)
	if err := m.store.Restore(s.Store); err != nil {
		return err
	}
	m.nextID = s.NextID
	if err := m.ft.Restore(s.Fence); err != nil {
		return err
	}
	if err := m.acks.Restore(s.Acks); err != nil {
		return err
	}
	for i, sm := range sms {
		if err := sm.restore(s.SMs[i]); err != nil {
			return err
		}
	}
	for i, c := range cores {
		if err := c.restore(s.Cores[i]); err != nil {
			return err
		}
	}
	for ch := range m.icnt {
		if err := m.icnt[ch].Restore(s.Icnt[ch]); err != nil {
			return err
		}
		if err := m.slices[ch].Restore(s.Slices[ch]); err != nil {
			return err
		}
		if err := m.l2dram[ch].Restore(s.L2DRAM[ch]); err != nil {
			return err
		}
		if err := m.mcs[ch].Restore(s.MCs[ch]); err != nil {
			return err
		}
	}
	if s.Traffic != nil {
		t := s.Traffic
		if len(t.Left) != len(m.hostLeft) {
			return fmt.Errorf("gpu: snapshot traffic covers %d channels, machine has %d", len(t.Left), len(m.hostLeft))
		}
		copy(m.hostLeft, t.Left)
		m.hostPending = t.Pending
		m.hostSent = make(map[uint64]sim.Time, len(t.Sent))
		for id, at := range t.Sent {
			m.hostSent[id] = at
		}
		m.hostLatency = t.Latency
		m.hostServed = t.Served
		m.hostHeld = m.hostHeld[:0]
		for _, h := range t.Held {
			m.hostHeld = append(m.hostHeld, heldHost{ch: h.Ch, desired: h.Desired})
		}
		m.hostRng.SetState(t.Rng)
	}
	if s.Fault != nil {
		m.fplan.SetCounts(*s.Fault)
	}
	if s.Sampler != nil {
		m.sampler.Restore(*s.Sampler)
	}
	m.resumed = true
	return nil
}
