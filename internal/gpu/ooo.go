package gpu

import (
	"fmt"

	"orderlight/internal/config"
	"orderlight/internal/core"
	"orderlight/internal/dram"
	"orderlight/internal/fault"
	"orderlight/internal/isa"
	"orderlight/internal/sim"
	"orderlight/internal/stats"
)

// host is the front-end abstraction the machine drives: SIMT SMs (the
// paper's evaluation host) or OoO CPU cores (the §9 extension).
//
// NextWork and Skip are the quiescence protocol of the skip-ahead
// engine: NextWork reports the earliest time at or after now at which
// Tick could change any state or statistic on its own (sim.TimeInf when
// only external input — an acknowledgment — can wake the host), and
// Skip credits n elided idle cycles to the per-cycle stall counters so
// they stay byte-identical with a dense run.
type host interface {
	Tick(now sim.Time)
	Done() bool
	NextWork(now sim.Time) sim.Time
	Skip(n int64)
}

// OoOCore models an out-of-order CPU core running one PIM kernel, per
// the paper's conclusion: renaming/reservation stations can reorder the
// moment a memory operation leaves the core, so ordering must be
// maintained there the way the operand collector maintains it on a GPU.
//
// The model: instruction lanes dispatch in program order into a
// reorder-buffer/reservation-station window; memory issue picks *any*
// ready window entry each cycle (seeded pseudo-random arbitration — the
// adversarial reordering source). An OrderLight instruction blocks
// dispatch only until the window holds no older PIM request for its
// group(s), then injects its packet; a fence blocks dispatch until the
// window is empty AND every issued request has been acknowledged from
// the memory side.
type OoOCore struct {
	id       int
	cfg      config.Config
	geom     dram.Geometry
	tileCmds int // commands per tile, cfg.CommandsPerTile()
	st       *stats.Run

	w      warp // reuses the warp program-cursor state (one thread per core)
	window []isa.Request
	rs     *core.CollectorCounter // unissued PIM requests per (channel, group)
	ft     *core.FenceTracker
	rng    sim.Rand

	send   func(r isa.Request) bool
	nextID *uint64

	// fault, when non-nil, can no-op ordering instructions at dispatch
	// (ClassDropOrdering); consulted identically by dispatch and
	// NextWork. Armed by Machine.SetFaultPlan; methods are nil-safe.
	fault *fault.Plan
}

// reset prepares the core for a new run of prog, keeping its window and
// counters. The fault plan is disarmed.
func (c *OoOCore) reset(id int, cfg config.Config, geom dram.Geometry, st *stats.Run, prog Program, ft *core.FenceTracker) {
	c.id, c.cfg, c.geom, c.tileCmds, c.st, c.ft = id, cfg, geom, cfg.CommandsPerTile(), st, ft
	c.w = warp{id: id, channel: prog.Channel, prog: prog.Instrs}
	c.window = c.window[:0]
	if c.rs == nil {
		c.rs = new(core.CollectorCounter)
	}
	c.rs.Reset(geom.Channels, geom.Groups, cfg.GPU.CollectorTags)
	c.rng = *sim.NewRand(cfg.Run.Seed ^ 0x0002_a0c0 ^ uint64(id)<<40)
	c.fault = nil
}

// Done reports whether the core retired its program and drained its
// window.
func (c *OoOCore) Done() bool {
	return c.w.state == warpDone && len(c.window) == 0
}

// Tick advances the core one cycle: memory issue first (so freshly
// dispatched lanes wait at least a cycle), then dispatch.
func (c *OoOCore) Tick(now sim.Time) {
	c.issueMemory()
	c.dispatch()
}

// NextWork reports when the core could next act on its own. A non-empty
// window forces the current cycle: issueMemory draws from the arbitration
// PRNG every such cycle, and skipping would desynchronize the stream a
// dense run consumes. With an empty window the core is quiescent exactly
// when dispatch is blocked on external acknowledgments (fence drain or
// seqno credits); everything else can act immediately.
func (c *OoOCore) NextWork(now sim.Time) sim.Time {
	if len(c.window) > 0 {
		return now
	}
	if c.w.state == warpDone {
		return sim.TimeInf
	}
	if c.w.pc >= len(c.w.prog) {
		return now // one tick marks the core done
	}
	in := &c.w.prog[c.w.pc]
	switch in.Kind {
	case isa.KindFence:
		if !c.ft.Drained(c.w.id) && !c.fault.ShouldDropOrdering(c.w.id, c.w.pc) {
			return sim.TimeInf
		}
	case isa.KindOrderLight:
		// Window empty ⇒ every reservation-station counter is zero ⇒ the
		// packet can inject this cycle (send backpressure still spins
		// densely, which is what we want for IssueStallCycles).
	default:
		if c.cfg.Run.Primitive == config.PrimitiveSeqno &&
			c.ft.Outstanding(c.w.id)+len(c.window) >= c.cfg.Run.SeqnoCredits {
			return sim.TimeInf
		}
	}
	return now
}

// Skip credits k elided idle cycles. The core only skips while dispatch
// is blocked at its first slot on a fence or credit stall, each of which
// accrues exactly one stall-counter increment per dense cycle.
func (c *OoOCore) Skip(k int64) {
	if c.w.state == warpDone || k <= 0 {
		return
	}
	in := &c.w.prog[c.w.pc]
	switch {
	case in.Kind == isa.KindFence:
		c.w.state = warpFence
		c.st.FenceStallCycles += k
	case c.cfg.Run.Primitive == config.PrimitiveSeqno:
		c.st.CreditStallCycles += k
	default:
		panic("gpu: OoO core skipped cycles while runnable (quiescence hint bug)")
	}
}

// issueMemory sends up to MemPorts window entries into the memory pipe,
// chosen pseudo-randomly among all waiting entries — the reservation
// station does not honor program order between independent requests.
func (c *OoOCore) issueMemory() {
	for port := 0; port < c.cfg.Host.MemPorts && len(c.window) > 0; port++ {
		i := c.rng.Intn(len(c.window))
		r := c.window[i]
		if !c.send(r) {
			c.st.IssueStallCycles++
			return
		}
		c.rs.Release(int(r.Channel), int(r.Group))
		if r.Kind.IsPIM() {
			c.ft.Issued(c.w.id)
		}
		c.window = append(c.window[:i], c.window[i+1:]...)
	}
}

// dispatch moves up to DispatchWidth program lanes into the window, in
// program order, resolving ordering instructions at the dispatch stage.
func (c *OoOCore) dispatch() {
	for slot := 0; slot < c.cfg.Host.DispatchWidth; slot++ {
		if c.w.pc >= len(c.w.prog) {
			c.w.state = warpDone
			return
		}
		in := &c.w.prog[c.w.pc]
		switch in.Kind {
		case isa.KindFence:
			if c.fault.ShouldDropOrdering(c.w.id, c.w.pc) {
				// Injected fault: the fence retires without draining the
				// window or waiting for acknowledgments.
				c.fault.Record(fault.PointFenceDropped)
				c.w.state = warpReady
				c.w.pc++
				continue
			}
			c.w.state = warpFence
			if len(c.window) > 0 || !c.ft.Drained(c.w.id) {
				c.st.FenceStallCycles++
				return
			}
			c.st.FenceCount++
			c.w.state = warpReady
			c.w.pc++
		case isa.KindOrderLight:
			if c.fault.ShouldDropOrdering(c.w.id, c.w.pc) {
				// Injected fault: no packet is built; the number is still
				// consumed so surviving packets keep increasing numbers.
				c.fault.Record(fault.PointOLDropped)
				c.w.pktNum++
				c.w.state = warpReady
				c.w.pc++
				continue
			}
			c.w.state = warpOL
			drained := c.rs.Zero(c.w.channel, in.Group)
			for _, g := range in.XGroups {
				drained = drained && c.rs.Zero(c.w.channel, int(g))
			}
			if !drained {
				c.st.OLStallCycles++
				return
			}
			*c.nextID++
			pkt := olRequest(*c.nextID, c.id, &c.w, in)
			c.w.seq++
			c.w.pktNum++
			if !c.send(pkt) {
				c.st.IssueStallCycles++
				return
			}
			c.st.OLCount++
			c.st.WarpInstrs++
			c.w.state = warpReady
			c.w.pc++
		default:
			if !in.Kind.IsPIM() {
				panic(fmt.Sprintf("gpu: OoO core %d cannot dispatch %v", c.id, in.Kind))
			}
			if c.cfg.Run.Primitive == config.PrimitiveSeqno &&
				c.ft.Outstanding(c.w.id)+len(c.window) >= c.cfg.Run.SeqnoCredits {
				c.st.CreditStallCycles++
				return
			}
			if len(c.window) >= c.cfg.Host.ROBSize {
				c.st.IssueStallCycles++
				return
			}
			r := laneRequest(c.tileCmds, &c.geom, &c.w, in, c.id, c.nextID)
			c.window = append(c.window, r)
			c.rs.Alloc(int(r.Channel), int(r.Group))
			c.w.lane++
			if c.w.lane >= in.Count {
				c.w.lane = 0
				c.w.pc++
				c.st.WarpInstrs++
			}
		}
	}
}
