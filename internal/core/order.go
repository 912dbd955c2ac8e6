// Package core implements the paper's primary contribution: the
// OrderLight memory-centric ordering machinery of §5.
//
// It contains the three hardware structures the paper adds:
//
//   - Tracker: the memory-controller scheduler augmentation of §5.3.2 —
//     a request counter and an OrderLight flag per PIM memory-group,
//     generalized to a queue of epochs so that several in-flight
//     OrderLight packets never stall packet acceptance.
//   - CopyMerge: the copy-and-merge finite state machine of Figure 9 that
//     carries an OrderLight packet across divergent memory-pipe paths.
//   - CollectorCounter: the per-(channel, group) operand-collector
//     counters of §5.3.1 that tell the core when an OrderLight packet may
//     be injected behind all older PIM requests.
//   - FenceTracker: the core-centric baseline — outstanding-request
//     accounting that a traditional fence spins on (§4.3).
package core

import (
	"fmt"

	"orderlight/internal/sim"
)

// Epoch identifies the ordering interval a request belongs to within one
// (channel, memory-group). Epoch e must fully issue to DRAM before any
// request of epoch e+1 may be scheduled.
type Epoch int

// Tracker enforces OrderLight semantics at one memory controller. The
// paper's formulation keeps, per memory-group, a counter of requests
// that entered the scheduler before the OrderLight packet and a flag
// that blocks younger requests while the counter drains. Tracker keeps a
// small FIFO of such counters (one per OrderLight packet received), which
// degenerates to exactly the paper's flag+counter when at most one
// packet is buffered.
type Tracker struct {
	groups []trackerGroup
	// LastPktNum records the most recent OrderLight packet number seen
	// per group, for the sanity checks / statistics the packet-number
	// field exists for (§5.3.1). -1 until the first packet arrives.
	lastPktNum []int64
	// eligible is the number of requests, over all groups, in their
	// group's oldest live epoch: exactly the requests CanIssue allows.
	eligible int
}

type trackerGroup struct {
	// epochs[i] is the number of not-yet-issued requests in the i-th
	// oldest ordering epoch. The final element is the currently open
	// epoch; earlier elements are epochs closed by an OrderLight packet.
	epochs []int
	// base is the Epoch id of epochs[0].
	base Epoch
}

// NewTracker creates a tracker for nGroups memory-groups.
func NewTracker(nGroups int) *Tracker {
	t := new(Tracker)
	t.Reset(nGroups)
	return t
}

// Reset returns the tracker to its initial state for nGroups groups:
// one open, empty epoch per group and no packet seen. Per-group epoch
// buffers are kept.
func (t *Tracker) Reset(nGroups int) {
	t.groups = sim.Resize(t.groups, nGroups)
	t.lastPktNum = sim.Resize(t.lastPktNum, nGroups)
	for g := range t.groups {
		t.groups[g].epochs = append(t.groups[g].epochs[:0], 0)
		t.groups[g].base = 0
		t.lastPktNum[g] = -1
	}
	t.eligible = 0
}

// Arrive registers a request for the given group with the scheduler and
// returns the epoch the request belongs to. Must be called once per
// request, in the order requests enter the scheduler's transaction queue
// (the pipe preserves that order).
func (t *Tracker) Arrive(group int) Epoch {
	g := &t.groups[group]
	g.epochs[len(g.epochs)-1]++
	if len(g.epochs) == 1 {
		t.eligible++
	}
	return g.base + Epoch(len(g.epochs)-1)
}

// OrderLight records an OrderLight packet for the group: the current
// epoch closes and a new one opens. Requests arriving later belong to
// the new epoch and will not be scheduled until the closed epochs drain.
// pktNum is the packet's 32-bit sequence number; OrderLight returns an
// error if it is not strictly increasing (the sanity check the field is
// for). The ordering state is updated regardless.
func (t *Tracker) OrderLight(group int, pktNum uint32) error {
	g := &t.groups[group]
	g.epochs = append(g.epochs, 0)
	// A packet over an already-drained epoch imposes no constraint: the
	// paper's counter is already zero, so the flag clears immediately.
	t.eligible += g.retire()
	var err error
	if last := t.lastPktNum[group]; last >= 0 && int64(pktNum) <= last {
		err = fmt.Errorf("core: OrderLight packet number %d not increasing (last %d) in group %d",
			pktNum, last, group)
	}
	t.lastPktNum[group] = int64(pktNum)
	return err
}

// CanIssue reports whether a request of the given epoch may be scheduled
// now: only requests of the oldest non-drained epoch are eligible. This
// is the paper's "any subsequent request to that memory-group is not
// scheduled until the flag is unset" check.
func (t *Tracker) CanIssue(group int, e Epoch) bool {
	g := &t.groups[group]
	return e == g.base
}

// Issued tells the tracker a request of the given epoch was scheduled
// (issued toward DRAM). When the oldest epoch drains and was closed by
// an OrderLight packet, the next epoch becomes eligible — the paper's
// "the flag is unset when the counter ... is decremented to zero".
func (t *Tracker) Issued(group int, e Epoch) {
	g := &t.groups[group]
	idx := int(e - g.base)
	if idx < 0 || idx >= len(g.epochs) {
		panic(fmt.Sprintf("core: Issued with unknown epoch %d (base %d, %d epochs)", e, g.base, len(g.epochs)))
	}
	if g.epochs[idx] <= 0 {
		panic(fmt.Sprintf("core: Issued on drained epoch %d of group %d", e, group))
	}
	g.epochs[idx]--
	if idx == 0 {
		t.eligible--
	}
	t.eligible += g.retire()
}

// Eligible returns how many registered-but-unissued requests CanIssue
// currently allows, over all groups: the sum of each group's oldest
// live epoch. Arrive, OrderLight and Issued keep it in O(1). Within a
// group epochs never decrease in arrival order, so a scheduler walking
// its queue oldest-first has seen every eligible request once it has
// seen this many.
func (t *Tracker) Eligible() int { return t.eligible }

// retire drops fully drained closed epochs from the front and returns
// the request count of the epoch that became the oldest (0 when none
// was dropped: the dropped epochs were empty). It shifts the live
// epochs down instead of reslicing, so the slice keeps its capacity and
// the next OrderLight packet appends without allocating.
func (g *trackerGroup) retire() int {
	n := 0
	for n < len(g.epochs)-1 && g.epochs[n] == 0 {
		n++
	}
	if n == 0 {
		return 0
	}
	g.epochs = g.epochs[:copy(g.epochs, g.epochs[n:])]
	g.base += Epoch(n)
	return g.epochs[0]
}

// Blocked reports whether the group currently has an OrderLight
// constraint pending (i.e. at least one closed epoch not yet drained) —
// the paper's OrderLight flag, for statistics.
func (t *Tracker) Blocked(group int) bool {
	return len(t.groups[group].epochs) > 1
}

// Outstanding returns the total number of registered-but-unissued
// requests in the group across all epochs.
func (t *Tracker) Outstanding(group int) int {
	n := 0
	for _, c := range t.groups[group].epochs {
		n += c
	}
	return n
}

// PendingEpochs returns how many ordering epochs are live for the group
// (1 = unconstrained).
func (t *Tracker) PendingEpochs(group int) int {
	return len(t.groups[group].epochs)
}
