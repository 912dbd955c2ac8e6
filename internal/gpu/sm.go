package gpu

import (
	"fmt"

	"orderlight/internal/config"
	"orderlight/internal/core"
	"orderlight/internal/dram"
	"orderlight/internal/fault"
	"orderlight/internal/isa"
	"orderlight/internal/obs"
	"orderlight/internal/sim"
	"orderlight/internal/stats"
)

// Program is the PIM kernel executed by one warp. Each warp drives
// exactly one memory channel (§5.4: one host warp per PIM unit).
type Program struct {
	Channel int
	Instrs  []isa.Instr
}

// warpState enumerates why a warp is not issuing.
type warpState uint8

const (
	warpReady warpState = iota
	warpFence           // stalled on a fence drain
	warpOL              // waiting to inject an OrderLight packet
	warpDone
)

// warp is the execution state of one PIM warp.
type warp struct {
	id      int // global warp id
	channel int
	prog    []isa.Instr
	pc      int
	lane    int // next SIMT lane of the current instruction
	state   warpState
	pktNum  uint32 // per-(channel,group) OrderLight packet number; one warp owns its channel
	seq     uint64 // program-order sequence for emitted requests

	// stallAcc counts issue slots burned spinning on the current
	// ordering instruction (fence drain or OrderLight counter wait),
	// credited identically by step and Skip so the stall span emitted
	// when the instruction finally issues is engine-independent.
	stallAcc int64
}

// collectorEntry is a PIM request being gathered in the operand
// collector.
type collectorEntry struct {
	r     isa.Request
	ready sim.Time
}

// SM models one streaming multiprocessor running PIM warps.
type SM struct {
	id       int
	cfg      config.Config
	geom     dram.Geometry
	tileCmds int // commands per tile, cfg.CommandsPerTile()
	st       *stats.Run

	warps     []*warp
	rr        int // round-robin warp pointer
	collector []collectorEntry
	ldst      *sim.Queue[isa.Request]
	cc        *core.CollectorCounter
	ft        *core.FenceTracker

	// send pushes a request into the interconnect toward its channel;
	// it returns false when the channel pipe is full this cycle.
	send func(r isa.Request) bool

	// sink, when non-nil, receives warp-track ordering events: a span
	// for each fence/OrderLight stall episode and an instant when the
	// primitive issues. Armed by Machine.SetSink.
	sink obs.Sink

	// fault, when non-nil, can no-op ordering instructions at issue
	// (ClassDropOrdering). Consulted identically by stall, step and —
	// through stall — NextWork, keyed by static instruction location,
	// so all three always agree. Armed by Machine.SetFaultPlan;
	// decision methods are nil-safe.
	fault *fault.Plan

	nextID *uint64 // shared request-ID counter

	skipScratch []int // active-warp index buffer reused by Skip
}

// reset prepares the SM for a new run with no warps (addWarp adds
// them), keeping its warp records, collector, LDST queue and counters.
// The sink and the fault plan are disarmed.
func (s *SM) reset(id int, cfg config.Config, geom dram.Geometry, st *stats.Run, ft *core.FenceTracker) {
	s.id, s.cfg, s.geom, s.tileCmds, s.st, s.ft = id, cfg, geom, cfg.CommandsPerTile(), st, ft
	s.warps, s.rr = s.warps[:0], 0
	// Sized to its bound so the append/shift cycle of the collector
	// never reallocates.
	if cap(s.collector) < cfg.GPU.CollectorUnits {
		s.collector = make([]collectorEntry, 0, cfg.GPU.CollectorUnits)
	}
	s.collector = s.collector[:0]
	if s.ldst == nil {
		s.ldst, s.cc = new(sim.Queue[isa.Request]), new(core.CollectorCounter)
	}
	s.ldst.Reset(cfg.GPU.LDSTQueueSize)
	s.cc.Reset(geom.Channels, geom.Groups, cfg.GPU.CollectorTags)
	s.sink, s.fault = nil, nil
}

// addWarp gives the SM a warp running program p.
func (s *SM) addWarp(id int, p Program) {
	n := len(s.warps)
	s.warps = sim.Resize(s.warps, n+1)
	if s.warps[n] == nil {
		s.warps[n] = new(warp)
	}
	*s.warps[n] = warp{id: id, channel: p.Channel, prog: p.Instrs}
}

// Done reports whether every warp has retired its program and all
// SM-local buffers are empty.
func (s *SM) Done() bool {
	for _, w := range s.warps {
		if w.state != warpDone {
			return false
		}
	}
	return len(s.collector) == 0 && s.ldst.Len() == 0
}

// Tick advances the SM by one core cycle.
func (s *SM) Tick(now sim.Time) {
	s.drainLDST()
	s.completeCollector(now)
	s.issue(now)
}

// warpStall classifies why a warp cannot make progress this cycle. The
// zero value means the warp can issue (or retire) now.
type warpStall uint8

const (
	stallNone      warpStall = iota
	stallFence               // fence waiting on external acknowledgments
	stallOL                  // OrderLight waiting on the operand collector
	stallCredit              // seqno credits exhausted (external acks)
	stallCollector           // operand-collector units all busy
)

// stall classifies warp w against the SM's current state. It is the
// single source of truth shared by step (which acts on the
// classification), NextWork (which derives the quiescence hint from it)
// and Skip (which batch-credits the per-cycle stall counters).
func (s *SM) stall(w *warp) warpStall {
	if w.pc >= len(w.prog) {
		return stallNone // one tick retires the warp
	}
	in := &w.prog[w.pc]
	switch in.Kind {
	case isa.KindFence:
		if s.fault.ShouldDropOrdering(w.id, w.pc) {
			return stallNone // the fence is no-oped; nothing to wait for
		}
		if !s.ft.Drained(w.id) {
			return stallFence
		}
		return stallNone
	case isa.KindOrderLight:
		if s.fault.ShouldDropOrdering(w.id, w.pc) {
			return stallNone // the packet is never built; no counter wait
		}
		drained := s.cc.Zero(w.channel, in.Group)
		for _, g := range in.XGroups {
			drained = drained && s.cc.Zero(w.channel, int(g))
		}
		if !drained || !s.ldst.CanPush() {
			return stallOL
		}
		return stallNone
	default:
		if !in.Kind.IsPIM() && !in.Kind.IsMemAccess() {
			panic(fmt.Sprintf("gpu: warp %d cannot issue %v", w.id, in.Kind))
		}
		if s.cfg.Run.Primitive == config.PrimitiveSeqno &&
			s.ft.Outstanding(w.id) >= s.cfg.Run.SeqnoCredits {
			return stallCredit
		}
		if len(s.collector) >= s.cfg.GPU.CollectorUnits {
			return stallCollector
		}
		return stallNone
	}
}

// NextWork reports the earliest time at or after now at which Tick could
// change any SM state or statistic on its own: now while anything is
// draining or issuable, the collector head's completion time while every
// warp waits on it, and sim.TimeInf when the only possible wake-up is
// external (a fence or credit acknowledgment arriving at the machine).
func (s *SM) NextWork(now sim.Time) sim.Time {
	if s.ldst.Len() > 0 {
		return now // drainLDST moves entries (or accrues IssueStallCycles on backpressure)
	}
	next := sim.TimeInf
	if len(s.collector) > 0 {
		ready := s.collector[0].ready
		if ready <= now {
			return now
		}
		next = ready
	}
	for _, w := range s.warps {
		if w.state == warpDone {
			continue
		}
		switch s.stall(w) {
		case stallNone:
			return now
		case stallFence, stallCredit:
			// External wake-up: the acknowledgment pipe is watched at the
			// machine level, so these contribute no edge here — but the
			// stall counters they accrue are credited by Skip.
		case stallOL, stallCollector:
			// Wakes when the collector head completes; its ready time is
			// already in next (the collector cannot be empty in either
			// state: busy units hold entries, and an OL waits only while
			// some counter is nonzero, i.e. an entry is un-released).
			if len(s.collector) == 0 {
				return now // defensive: hint bug, fall back to dense
			}
		}
	}
	return next
}

// Skip credits k elided idle cycles. The round-robin scheduler's dense
// behavior over a window where no warp can issue is closed-form: each
// cycle the first min(active, IssuePerCycle) active warps in cyclic
// order from rr burn an issue slot spinning on their stall (one stat
// increment each), and rr ends one past the last spinner. NextWork
// guarantees every non-retired warp is stall-classified for the whole
// window (collector and LDST state only change on this SM's own ticks).
func (s *SM) Skip(k int64) {
	active := s.skipScratch[:0]
	for i, w := range s.warps {
		if w.state != warpDone {
			active = append(active, i)
		}
	}
	s.skipScratch = active
	a := int64(len(active))
	if a == 0 || k <= 0 {
		return
	}
	slots := int64(s.cfg.GPU.IssuePerCycle)
	if slots > a {
		slots = a
	}
	total := k * slots
	// p0: position within active[] of the first spinner, i.e. the first
	// active warp at or after rr (cyclically).
	p0 := int64(0)
	for j, i := range active {
		if i >= s.rr {
			p0 = int64(j)
			break
		}
	}
	// Spinner t (t = 0..total-1) is active[(p0+t) mod a]: position j
	// spins q times, plus once more for the first `total mod a`
	// positions starting at p0.
	q, rem := total/a, total%a
	for j, i := range active {
		cnt := q
		if (int64(j)-p0+a)%a < rem {
			cnt++
		}
		if cnt == 0 {
			continue
		}
		w := s.warps[i]
		switch s.stall(w) {
		case stallFence:
			w.state = warpFence
			s.st.FenceStallCycles += cnt
			w.stallAcc += cnt
		case stallOL:
			w.state = warpOL
			s.st.OLStallCycles += cnt
			w.stallAcc += cnt
		case stallCredit:
			s.st.CreditStallCycles += cnt
		case stallCollector:
			s.st.IssueStallCycles += cnt
		default:
			panic("gpu: SM skipped cycles while a warp was runnable (quiescence hint bug)")
		}
	}
	last := active[(p0+total-1)%a]
	s.rr = (last + 1) % len(s.warps)
}

// drainLDST moves up to IssuePerCycle requests per cycle from the LDST
// queue into the interconnect (the LDST unit's ports), subject to
// backpressure.
func (s *SM) drainLDST() {
	for port := 0; port < s.cfg.GPU.IssuePerCycle; port++ {
		r := s.ldst.Head()
		if r == nil {
			return
		}
		if !s.send(*r) {
			s.st.IssueStallCycles++
			return
		}
		s.ldst.Pop()
	}
}

// completeCollector releases finished operand-collector entries into the
// LDST queue, in order.
func (s *SM) completeCollector(now sim.Time) {
	for len(s.collector) > 0 {
		e := s.collector[0]
		if e.ready > now || !s.ldst.CanPush() {
			return
		}
		s.ldst.Push(e.r)
		s.cc.Release(int(e.r.Channel), int(e.r.Group))
		// Shift in place (the unit count is small) rather than reslice:
		// reslicing would shed capacity and make the append in step
		// reallocate every few cycles.
		copy(s.collector, s.collector[1:])
		s.collector = s.collector[:len(s.collector)-1]
	}
}

// issue runs the warp schedulers: up to IssuePerCycle instruction lanes
// per cycle, each from a distinct warp, round-robin.
func (s *SM) issue(now sim.Time) {
	n := len(s.warps)
	start := s.rr
	slots := s.cfg.GPU.IssuePerCycle
	for k := 0; k < n && slots > 0; k++ {
		i := (start + k) % n
		w := s.warps[i]
		if w.state == warpDone {
			continue
		}
		if s.step(w, now) {
			slots--
			s.rr = (i + 1) % n
		}
	}
}

// step attempts to advance warp w; it reports whether the warp consumed
// the issue slot. The blocked cases mirror Skip exactly (both act on the
// shared stall classification), so batch-crediting elided cycles stays
// byte-identical with spinning through them.
func (s *SM) step(w *warp, now sim.Time) bool {
	if w.pc >= len(w.prog) {
		w.state = warpDone
		return false
	}
	in := &w.prog[w.pc]
	switch s.stall(w) {
	case stallFence:
		w.state = warpFence
		s.st.FenceStallCycles++
		w.stallAcc++
		return true // the warp occupies its slot spinning
	case stallOL:
		w.state = warpOL
		s.st.OLStallCycles++
		w.stallAcc++
		return true
	case stallCredit:
		// Credit-based flow control: the §8.1 baseline may not have
		// more unacknowledged requests in flight than the memory
		// side has reorder-buffer credits for.
		s.st.CreditStallCycles++
		return true
	case stallCollector:
		s.st.IssueStallCycles++
		return true
	}
	switch in.Kind {
	case isa.KindFence:
		if s.fault.ShouldDropOrdering(w.id, w.pc) {
			// Injected fault: the fence retires without waiting for the
			// drain and without counting as a primitive.
			s.fault.Record(fault.PointFenceDropped)
			w.state = warpReady
			w.pc++
			return true
		}
		s.st.FenceCount++
		s.emitOrdering(w, "fence", now)
		w.state = warpReady
		w.pc++
		return true
	case isa.KindOrderLight:
		if s.fault.ShouldDropOrdering(w.id, w.pc) {
			// Injected fault: no packet reaches the memory side; the
			// packet number is still consumed so surviving packets keep
			// strictly increasing numbers.
			s.fault.Record(fault.PointOLDropped)
			w.pktNum++
			w.state = warpReady
			w.pc++
			return true
		}
		*s.nextID++
		s.ldst.Push(olRequest(*s.nextID, s.id, w, in))
		w.pktNum++
		w.seq++
		s.st.OLCount++
		s.st.WarpInstrs++
		s.emitOrdering(w, "orderlight", now)
		w.state = warpReady
		w.pc++
		return true
	default:
		r := laneRequest(s.tileCmds, &s.geom, w, in, s.id, s.nextID)
		s.collector = append(s.collector, collectorEntry{
			r:     r,
			ready: now + sim.Time(s.cfg.GPU.CollectorLat)*sim.CoreTicks,
		})
		s.cc.Alloc(int(r.Channel), int(r.Group))
		if r.Kind.IsPIM() {
			// Host accesses are never fenced or acknowledged; only PIM
			// requests enter the fence tracker's outstanding count.
			s.ft.Issued(w.id)
		}
		w.lane++
		if w.lane >= in.Count {
			w.lane = 0
			w.pc++
			s.st.WarpInstrs++
		}
		return true
	}
}

// emitOrdering reports an ordering primitive issuing on warp w: the
// stall episode that preceded it as a duration span (its length is the
// per-warp slot count both engines credit identically, so dense and
// skip-ahead runs emit byte-identical streams) followed by an instant
// marking the issue itself. Resets the episode accumulator either way.
func (s *SM) emitOrdering(w *warp, name string, now sim.Time) {
	acc := w.stallAcc
	w.stallAcc = 0
	if s.sink == nil {
		return
	}
	track := obs.Track{Kind: "warp", ID: w.id}
	if acc > 0 {
		dur := sim.Time(acc) * sim.CoreTicks
		s.sink.Emit(obs.Event{
			Name: name + "-stall", Track: track,
			At: now - dur, Dur: dur,
			Detail: fmt.Sprintf("%d slots ch%d", acc, w.channel),
		})
	}
	s.sink.Emit(obs.Event{
		Name: name, Track: track, At: now,
		Detail: fmt.Sprintf("ch%d", w.channel),
	})
}

// laneRequest materializes the current lane of a warp (or OoO-thread)
// instruction as a memory-pipe request, resolving the address mapping
// the way the compiled PIM kernel would (§5.4). Each memory-group owns
// its own temporary-storage partition (§4.1 allows multiple PIM units
// per channel), so concurrent tiles in different groups never clobber
// each other's slots. tileCmds is the config's commands per tile.
func laneRequest(tileCmds int, geom *dram.Geometry, w *warp, in *isa.Instr, hostID int, nextID *uint64) isa.Request {
	*nextID++
	r := isa.Request{
		ID:      *nextID,
		Kind:    in.Kind,
		Op:      in.Op,
		Channel: uint8(w.channel),
		SM:      int16(hostID),
		Warp:    int16(w.id),
		Seq:     w.seq,
		Imm:     in.Imm,
		Group:   uint8(in.Group),
	}
	w.seq++
	if in.Kind.IsMemAccess() {
		r.Addr = in.Addr + isa.Addr(int64(w.lane)*in.Strd)
		loc := geom.Decode(r.Addr)
		if loc.Channel != w.channel {
			panic(fmt.Sprintf("gpu: warp %d (channel %d) built request for channel %d", w.id, w.channel, loc.Channel))
		}
		r.Bank, r.Row = uint8(loc.Bank), int32(loc.Row)
		r.Group = uint8(geom.GroupOf(loc.Bank))
	}
	r.TSlot = uint16(int(r.Group)*tileCmds + (in.TSlot+w.lane)%tileCmds)
	return r
}

// olRequest builds the OrderLight packet a warp's OrderLight instruction
// injects, folding the instruction's extension groups into the packet's
// group mask. The caller advances the warp's sequence and packet
// numbers. config.Validate and NewMachine bound every narrowed field.
func olRequest(id uint64, hostID int, w *warp, in *isa.Instr) isa.Request {
	return isa.Request{
		ID: id, Kind: isa.KindOrderLight,
		Channel: uint8(w.channel), Group: uint8(in.Group),
		SM: int16(hostID), Warp: int16(w.id), Seq: w.seq,
		OL: isa.OLPacket{
			PktID:     isa.PktIDOrderLight,
			Channel:   uint8(w.channel),
			Group:     uint8(in.Group),
			Number:    w.pktNum,
			ExtraMask: isa.GroupMask(in.XGroups),
		},
	}
}
