package memctrl

import (
	"fmt"
	"math/bits"

	"orderlight/internal/config"
	"orderlight/internal/core"
	"orderlight/internal/dram"
	"orderlight/internal/fault"
	"orderlight/internal/isa"
	"orderlight/internal/obs"
	"orderlight/internal/pim"
	"orderlight/internal/sim"
	"orderlight/internal/stats"
)

// Controller drives one memory channel.
type Controller struct {
	channel int
	geom    dram.Geometry
	timing  *dram.Timing
	unit    *pim.Unit
	tracker *core.Tracker
	div     *core.Diverge
	conv    *core.Converge
	txq     []txEntry
	txqCap  int
	st      *stats.Run

	// Sequence-number baseline state (§8.1): when enabled, PIM requests
	// issue to the device strictly in warp sequence order.
	seqno   bool
	nextSeq uint64
	fcfs    bool // strict oldest-first scheduling (ablation)

	// All-bank refresh state (optional; off in the paper's setup).
	refreshOn    bool
	refi, rfc    int64
	nextRefresh  int64
	refreshUntil int64
	draining     bool

	// OnIssue, if set, is called when a request's column command (or a
	// PIMExec's bus slot) issues to the device — the completion event
	// acknowledgments are generated from.
	OnIssue func(r isa.Request)

	// IssueLog, if non-nil, records requests in device issue order (used
	// by tests and the trace tool).
	IssueLog *[]isa.Request

	// Sink, if non-nil, receives device-level events: every DRAM command
	// (ACT/PRE/RD/WR, refresh as a tRFC-long span) on the channel's MC
	// track and every PIM command execution on the channel's PIM track.
	// Armed by Machine.SetSink.
	Sink obs.Sink

	// Fault, if non-nil, is the ordering-fault injection plan for this
	// run: it can weaken OrderLight tracker programming (dequeue),
	// bypass the tracker's issue gate (canIssue), and defer PIM
	// write-back visibility (issueColumn). Armed by
	// Machine.SetFaultPlan. All Plan decision methods are nil-safe.
	Fault *fault.Plan
}

// txEntry is one transaction in the scheduler's working set.
type txEntry struct {
	r      isa.Request
	epoch  core.Epoch
	didACT bool // this transaction triggered its own activate (row miss)
}

// bank, row and group widen the request's sized fields to the int
// indices the DRAM timing model and the ordering tracker take.
func (e *txEntry) bank() int  { return int(e.r.Bank) }
func (e *txEntry) row() int   { return int(e.r.Row) }
func (e *txEntry) group() int { return int(e.r.Group) }

// Sub-path indices of the read/write queue divergence point.
const (
	pathRead  = 0
	pathWrite = 1
)

// rwPaths is the (immutable) path set an OrderLight packet visits; a
// shared slice so GroupPaths never allocates on the per-cycle
// CanAccept path.
var rwPaths = []int{pathRead, pathWrite}

// never is the NextWork value for "no self-generated future work". It
// matches sim.NoWork by construction (both are max int64).
const never = int64(^uint64(0) >> 1)

// New creates the controller for one channel.
func New(channel int, cfg config.Config, geom dram.Geometry, store *dram.Store, st *stats.Run) *Controller {
	c := new(Controller)
	c.Reset(channel, cfg, geom, store, st)
	return c
}

// Reset returns the controller to its initial state for a new run over
// the given store and statistics, keeping its timing banks, PIM unit,
// tracker, queues and working set. OnIssue stays armed; IssueLog, Sink
// and Fault are disarmed.
func (c *Controller) Reset(channel int, cfg config.Config, geom dram.Geometry, store *dram.Store, st *stats.Run) {
	if c.div == nil {
		c.div = &core.Diverge{
			NPaths: 2,
			Route: func(r isa.Request) int {
				if r.Kind.IsWrite() {
					return pathWrite
				}
				return pathRead
			},
			// An OrderLight packet must visit both queues regardless of
			// group: either queue may hold older requests of its group.
			GroupPaths: func(int) []int { return rwPaths },
		}
		c.timing, c.unit, c.tracker, c.conv = new(dram.Timing), new(pim.Unit), new(core.Tracker), new(core.Converge)
	}
	c.timing.Reset(cfg.Memory.Timing, geom.Banks)
	c.unit.Reset(channel, cfg.CommandsPerTile()*cfg.Memory.GroupsPerChannel, store)
	c.tracker.Reset(geom.Groups)
	c.conv.Reset(2, cfg.GPU.RWQueueSize)
	if cap(c.txq) < cfg.GPU.RWQueueSize {
		c.txq = make([]txEntry, 0, cfg.GPU.RWQueueSize)
	}
	c.txq = c.txq[:0]
	c.channel, c.geom, c.txqCap, c.st = channel, geom, cfg.GPU.RWQueueSize, st
	c.seqno, c.nextSeq = cfg.Run.Primitive == config.PrimitiveSeqno, 0
	c.fcfs = cfg.Memory.Sched == config.SchedFCFS
	c.refreshOn = cfg.Memory.RefreshEnabled
	c.refi, c.rfc = int64(cfg.Memory.REFI), int64(cfg.Memory.RFC)
	c.nextRefresh, c.refreshUntil, c.draining = int64(cfg.Memory.REFI), 0, false
	c.IssueLog, c.Sink, c.Fault = nil, nil, nil
}

// Unit exposes the channel's PIM unit (for result verification).
func (c *Controller) Unit() *pim.Unit { return c.unit }

// Tracker exposes the ordering tracker (for tests).
func (c *Controller) Tracker() *core.Tracker { return c.tracker }

// CanAccept reports whether the controller can take the request from
// the L2-to-DRAM pipe this cycle: every divergence target must have room.
func (c *Controller) CanAccept(r isa.Request) bool {
	for _, p := range c.div.Targets(r) {
		if !c.conv.CanPush(p) {
			return false
		}
	}
	return true
}

// Accept places the request into the read/write queues, replicating an
// OrderLight packet onto both (§5.3.2). Callers must check CanAccept.
func (c *Controller) Accept(r isa.Request) {
	targets := c.div.Targets(r)
	rep := core.Replicate(r, 0)
	if r.Kind == isa.KindOrderLight && len(targets) > 1 {
		rep = core.Replicate(r, len(targets))
	}
	for _, p := range targets {
		if !c.conv.CanPush(p) {
			panic(fmt.Sprintf("memctrl: Accept without room on path %d for %v", p, r))
		}
		c.conv.Push(p, rep)
	}
}

// Pending returns the number of requests buffered anywhere in the
// controller (queues, scheduler working set, and PIM commands whose
// write-back visibility a fault plan has deferred).
func (c *Controller) Pending() int { return c.conv.Len() + len(c.txq) + c.unit.Deferred() }

// emit reports a device-level event if a sink is armed. Commands occur
// at memory-clock edges that are identical under the dense and
// skip-ahead engines, so the exported stream is engine-independent.
func (c *Controller) emit(kind, name string, memCycle, durCycles int64, detail string) {
	if c.Sink == nil {
		return
	}
	c.Sink.Emit(obs.Event{
		Name:   name,
		Track:  obs.Track{Kind: kind, ID: c.channel},
		At:     sim.Time(memCycle) * sim.MemTicks,
		Dur:    sim.Time(durCycles) * sim.MemTicks,
		Detail: detail,
	})
}

// Tick advances the controller by one memory-clock cycle.
func (c *Controller) Tick(memCycle int64) {
	// Fault-deferred PIM write-backs become visible first: deferral is
	// purely functional (no bus slot), so it runs even on cycles the
	// refresh machinery owns.
	if c.unit.Deferred() > 0 {
		if err := c.unit.RunDue(memCycle); err != nil {
			panic(fmt.Sprintf("memctrl: deferred PIM execution failed: %v", err))
		}
	}
	c.dequeue()
	if c.refresh(memCycle) {
		return // the refresh machinery owns the command bus this cycle
	}
	c.schedule(memCycle)
}

// NextWork returns the earliest memory cycle >= cycle at which Tick
// could change any state or statistic: the current cycle when the
// controller has immediate work (a dequeue slot, a due refresh, an
// issuable or tracker-blocked transaction), a future wake-up cycle
// derived from DRAM timing and refresh deadlines otherwise, and `never`
// (max int64) when the controller is empty and refresh is off. Hints
// may be early — the engine then fires an edge Tick treats as a no-op,
// exactly as the dense engine does every cycle — but are never late.
func (c *Controller) NextWork(cycle int64) int64 {
	if c.conv.Len() > 0 && len(c.txq) < c.txqCap {
		return cycle // dequeue admits one request per cycle
	}
	next := never
	if due, ok := c.unit.NextDue(); ok {
		if due <= cycle {
			return cycle // a deferred PIM write-back becomes visible now
		}
		next = due
	}
	if c.refreshOn {
		if cycle < c.refreshUntil {
			// Mid-refresh: the command bus is blocked until tRFC elapses,
			// but a deferred write-back (already in next) can act sooner.
			if c.refreshUntil < next {
				next = c.refreshUntil
			}
			return next
		}
		if c.draining || cycle >= c.nextRefresh {
			return cycle // precharge drain / refresh proper owns the bus every cycle
		}
		if c.nextRefresh < next {
			next = c.nextRefresh
		}
	}
	if len(c.txq) > 0 {
		w := c.nextSchedule(cycle)
		if w <= cycle {
			return cycle
		}
		if w < next {
			next = w
		}
	}
	return next
}

// nextSchedule mirrors schedule()'s two passes without side effects: it
// returns the earliest cycle at which some eligible transaction could
// issue a column, precharge or activate command. Two states force the
// current cycle: a PIMExec candidate (always bus-ready) and the
// no-eligible-candidate state, where schedule() accrues OLFlagBlocked
// every cycle and must therefore tick densely.
func (c *Controller) nextSchedule(cycle int64) int64 {
	next := never
	any := false
	for i := range c.txq {
		e := &c.txq[i]
		if !c.canIssue(e) {
			continue
		}
		if c.seqno && e.r.Kind.IsPIM() && e.r.Seq != c.nextSeq {
			continue
		}
		any = true
		if e.r.Kind == isa.KindPIMExec {
			return cycle
		}
		cmd := dram.CmdRD
		if e.r.Kind.IsWrite() {
			cmd = dram.CmdWR
		}
		if t := c.timing.Earliest(cmd, e.bank(), e.row()); t >= 0 && t < next {
			next = t
		}
		// Bank-progress wake-up (schedule's pass 2): the precharge or
		// activate the transaction needs before its column can issue.
		switch open := c.timing.OpenRow(e.bank()); {
		case open == e.row():
			// Row open; the column wake-up above covers it.
		case open >= 0:
			if t := c.timing.Earliest(dram.CmdPRE, e.bank(), open); t >= 0 && t < next {
				next = t
			}
		default:
			if t := c.timing.Earliest(dram.CmdACT, e.bank(), e.row()); t >= 0 && t < next {
				next = t
			}
		}
		if next <= cycle {
			return cycle
		}
	}
	if !any {
		return cycle // scheduler deferral: OLFlagBlocked accrues per cycle
	}
	return next
}

// refresh runs the all-bank refresh state machine: when tREFI elapses,
// open banks are drained with precharges, then the whole channel blocks
// for tRFC. Returns true while refresh activity blocks scheduling.
func (c *Controller) refresh(cycle int64) bool {
	if !c.refreshOn {
		return false
	}
	if cycle < c.refreshUntil {
		return true // mid-refresh
	}
	if !c.draining {
		if cycle < c.nextRefresh {
			return false
		}
		c.draining = true
	}
	// Drain: close any open bank (one precharge per cycle as timing
	// allows); the command bus stays reserved during the drain.
	for b := 0; b < c.geom.Banks; b++ {
		open := c.timing.OpenRow(b)
		if open < 0 {
			continue
		}
		if c.timing.CanIssue(dram.CmdPRE, b, open, cycle) {
			c.timing.Issue(dram.CmdPRE, b, open, cycle)
			c.st.PreCmds++
			if c.Sink != nil {
				c.emit("mc", "PRE", cycle, 0, fmt.Sprintf("bank %d (refresh drain)", b))
			}
		}
		return true
	}
	// All banks closed: refresh proper.
	c.draining = false
	c.refreshUntil = cycle + c.rfc
	c.nextRefresh += c.refi
	c.st.Refreshes++
	c.emit("mc", "REF", cycle, c.rfc, "all-bank refresh")
	return true
}

// dequeue moves one entry per cycle from the queue stage into the
// scheduler's working set, registering it with the ordering tracker in
// arrival order (merged OrderLight packets program the tracker here).
func (c *Controller) dequeue() {
	if len(c.txq) >= c.txqCap {
		return
	}
	var r isa.Request
	var ok bool
	if c.seqno {
		// Drain the read/write queues in warp sequence order so the
		// scheduler's working set always contains the next expected
		// request (otherwise the bounded working set could fill with
		// younger requests and deadlock).
		r, ok = c.conv.PopBest(func(a, b *isa.Request) bool {
			if a.Kind.IsPIM() != b.Kind.IsPIM() {
				return !a.Kind.IsPIM() // host traffic is unordered; let it through
			}
			return a.Seq < b.Seq
		})
	} else {
		r, ok = c.conv.Pop()
	}
	if !ok {
		return
	}
	if r.Kind == isa.KindOrderLight {
		c.st.OLMerges++
		// The base group, then each extension group of the mask: walking
		// the bits directly keeps the merge allocation-free.
		base, extra := true, r.OL.Extra()
		if c.Fault.ShouldWeakenDrain(r.ID) {
			// Weakened drain semantics: the packet's cross-group targets
			// are never programmed into the tracker; a single-group packet
			// is dropped at the controller outright, releasing its epoch's
			// younger requests early.
			if extra != 0 {
				c.Fault.RecordN(fault.PointOLWeakened, int64(bits.OnesCount16(extra)))
				extra = 0
			} else {
				c.Fault.Record(fault.PointOLDropped)
				base = false
			}
		}
		if base {
			c.orderLight(int(r.OL.Group), r.OL.Number)
		}
		for ; extra != 0; extra &= extra - 1 {
			c.orderLight(bits.TrailingZeros16(extra), r.OL.Number)
		}
		return
	}
	epoch := c.tracker.Arrive(int(r.Group))
	c.txq = append(c.txq, txEntry{r: r, epoch: epoch})
}

// orderLight programs one group's tracker with a merged packet.
func (c *Controller) orderLight(group int, pktNum uint32) {
	if err := c.tracker.OrderLight(group, pktNum); err != nil {
		panic(fmt.Sprintf("memctrl: %v", err))
	}
}

// schedule issues at most one DRAM command (or PIMExec bus slot) per
// memory cycle, FR-FCFS among transactions the ordering tracker allows.
func (c *Controller) schedule(memCycle int64) {
	if len(c.txq) == 0 {
		return
	}
	// Pass 1: oldest column-ready candidate (row-hit-first).
	anyCandidate := false
	for i := range c.txq {
		e := &c.txq[i]
		if !c.canIssue(e) {
			continue
		}
		if c.seqno && e.r.Kind.IsPIM() && e.r.Seq != c.nextSeq {
			continue // strict in-order release under sequence numbers
		}
		anyCandidate = true
		if c.columnReady(e, memCycle) {
			c.issueColumn(i, memCycle)
			return
		}
		if c.fcfs {
			break // strict FCFS: never hoist a younger row hit
		}
	}
	if !anyCandidate {
		c.st.OLFlagBlocked++
		return
	}
	// Pass 2: progress the oldest candidate's bank (precharge/activate).
	for i := range c.txq {
		e := &c.txq[i]
		if !c.canIssue(e) {
			continue
		}
		if c.seqno && e.r.Kind.IsPIM() && e.r.Seq != c.nextSeq {
			continue
		}
		if e.r.Kind == isa.KindPIMExec {
			continue // never needs bank progress; bus contention only
		}
		open := c.timing.OpenRow(e.bank())
		switch {
		case open == e.row():
			// Row already open; just waiting out column timing.
			return
		case open >= 0:
			if c.timing.CanIssue(dram.CmdPRE, e.bank(), open, memCycle) {
				c.timing.Issue(dram.CmdPRE, e.bank(), open, memCycle)
				c.st.PreCmds++
				if c.Sink != nil {
					c.emit("mc", "PRE", memCycle, 0, fmt.Sprintf("bank %d row %d", e.bank(), open))
				}
				return
			}
		default:
			if c.timing.CanIssue(dram.CmdACT, e.bank(), e.row(), memCycle) {
				c.timing.Issue(dram.CmdACT, e.bank(), e.row(), memCycle)
				c.st.ActCmds++
				e.didACT = true
				if c.Sink != nil {
					c.emit("mc", "ACT", memCycle, 0, fmt.Sprintf("bank %d row %d", e.bank(), e.row()))
				}
				return
			}
		}
		// The oldest candidate's bank is waiting out timing; allow a
		// younger candidate on a different bank to make progress instead
		// (bank-level parallelism), but never issue more than one
		// command per cycle.
		if c.fcfs {
			return // strict FCFS: only the oldest may touch the device
		}
	}
}

// canIssue is the scheduler's ordering gate: the tracker's verdict,
// overridden for transactions a fault plan illegally reorders. Shared
// by schedule, nextSchedule and issueColumn so the dense run, the
// quiescence hint and the injection accounting always agree.
func (c *Controller) canIssue(e *txEntry) bool {
	if c.tracker.CanIssue(e.group(), e.epoch) {
		return true
	}
	return c.Fault.ShouldBypassOrdering(e.r.ID)
}

// columnReady reports whether the transaction's final command could
// issue this cycle.
func (c *Controller) columnReady(e *txEntry, memCycle int64) bool {
	if e.r.Kind == isa.KindPIMExec {
		return true // consumes only the command-bus slot
	}
	cmd := dram.CmdRD
	if e.r.Kind.IsWrite() {
		cmd = dram.CmdWR
	}
	return c.timing.CanIssue(cmd, e.bank(), e.row(), memCycle)
}

// issueColumn completes transaction i: the column command (or exec slot)
// issues to the device, the PIM unit executes the command functionally,
// ordering state advances, and the completion callback fires.
func (c *Controller) issueColumn(i int, memCycle int64) {
	e := &c.txq[i]
	if e.r.Kind != isa.KindPIMExec {
		cmd := dram.CmdRD
		name := "RD"
		if e.r.Kind.IsWrite() {
			cmd, name = dram.CmdWR, "WR"
		}
		c.timing.Issue(cmd, e.bank(), e.row(), memCycle)
		if e.didACT {
			c.st.RowMisses++
		} else {
			c.st.RowHits++
		}
		if c.Sink != nil {
			c.emit("mc", name, memCycle, 0,
				fmt.Sprintf("#%d bank %d row %d", e.r.ID, e.bank(), e.row()))
		}
	} else if c.Sink != nil {
		c.emit("mc", "exec", memCycle, 0, fmt.Sprintf("#%d", e.r.ID))
	}
	if c.Fault != nil && !c.tracker.CanIssue(e.group(), e.epoch) {
		// The transaction is issuing past an undrained older epoch: the
		// canIssue bypass actually fired. Count it here, where the
		// reorder becomes real, not at every scheduler glance.
		c.Fault.Record(fault.PointReordered)
	}
	if e.r.Kind.IsPIM() {
		if d, ok := c.Fault.DelayExec(e.r.ID); ok {
			// Delayed visibility: the command is acknowledged and ordered
			// now, but its functional effect lands d cycles later.
			c.Fault.Record(fault.PointDelayedExec)
			c.unit.Defer(e.r, memCycle+d)
		} else if err := c.unit.Exec(e.r); err != nil {
			panic(fmt.Sprintf("memctrl: PIM execution failed: %v", err))
		}
		if c.Sink != nil {
			c.emit("pim", fmt.Sprintf("%v", e.r.Kind), memCycle, 0,
				fmt.Sprintf("#%d g%d slot %d", e.r.ID, e.group(), e.r.TSlot))
		}
	}
	c.st.CountCmd(e.r.Kind)
	c.tracker.Issued(e.group(), e.epoch)
	if c.seqno && e.r.Kind.IsPIM() {
		c.nextSeq = e.r.Seq + 1
	}
	if c.IssueLog != nil {
		*c.IssueLog = append(*c.IssueLog, e.r)
	}
	if c.OnIssue != nil {
		c.OnIssue(e.r)
	}
	c.txq = append(c.txq[:i], c.txq[i+1:]...)
}
