package core

import (
	"fmt"
	"math/bits"

	"orderlight/internal/isa"
	"orderlight/internal/sim"
)

// Diverge describes a divergence point in the memory pipe (Figure 9):
// normal requests are routed to exactly one sub-path, while an
// OrderLight packet is replicated onto every sub-path that can carry
// requests of its memory-group(s).
type Diverge struct {
	// NPaths is the number of sub-paths leaving the divergence point.
	NPaths int
	// Route maps a normal request to its sub-path.
	Route func(isa.Request) int
	// GroupPaths lists the sub-paths that may carry requests of a given
	// memory-group. The divergence FSM uses the packet's channel and
	// memory-group IDs to pick the relevant sub-paths (§5.3.2).
	// Implementations should return a precomputed slice: Targets is on
	// the per-cycle CanAccept path and must not allocate.
	GroupPaths func(group int) []int

	seen []bool // scratch for Targets, sized to NPaths on use
	out  []int  // scratch result buffer reused across Targets calls
}

// Targets returns the sub-paths a request must be placed on: one path
// for a normal request, the union of relevant paths for an OrderLight
// packet (deduplicated, ascending by construction of GroupPaths). The
// returned slice is scratch owned by the Diverge: it is valid only
// until the next Targets call.
func (d *Diverge) Targets(r isa.Request) []int {
	if len(d.seen) != d.NPaths {
		d.seen, d.out = make([]bool, d.NPaths), make([]int, 0, d.NPaths)
	}
	d.out = d.out[:0]
	if r.Kind != isa.KindOrderLight {
		return append(d.out, d.Route(r))
	}
	for i := range d.seen {
		d.seen[i] = false
	}
	// Walk the packet's base group then the extension mask directly:
	// OLPacket.Groups() would allocate, and path-level dedup via seen[]
	// already subsumes its group-level dedup.
	d.addGroupPaths(int(r.OL.Group))
	for m := r.OL.Extra(); m != 0; m &= m - 1 {
		d.addGroupPaths(bits.TrailingZeros16(m))
	}
	if len(d.out) == 0 {
		// A packet whose groups map nowhere still needs one path so it
		// is not silently dropped.
		d.out = append(d.out, 0)
	}
	return d.out
}

func (d *Diverge) addGroupPaths(g int) {
	for _, p := range d.GroupPaths(g) {
		if !d.seen[p] {
			d.seen[p] = true
			d.out = append(d.out, p)
		}
	}
}

// Replicate stamps the request with the number of copies the convergence
// FSM must collect. Normal requests keep Copies == 0. config.Validate
// bounds every divergence fan-out (L2 sub-partitions, interconnect
// routes) to 255, so the count fits the field.
func Replicate(r isa.Request, copies int) isa.Request {
	r.Copies = uint8(copies)
	return r
}

// Converge is the convergence-point FSM of Figure 9. It owns the
// sub-path FIFOs between a Diverge and the downstream pipe stage.
// Normal requests drain from sub-path heads in round-robin order; an
// OrderLight copy blocks its sub-path until every copy of the same
// packet has reached the head of its own sub-path, at which point all
// copies retire and a single merged packet is emitted. Requests behind a
// copy therefore cannot overtake the packet, exactly as §5.3.2 requires.
type Converge struct {
	paths []*sim.Queue[isa.Request]
	rr    int
}

// NewConverge creates a convergence point with nPaths sub-path FIFOs of
// the given capacity each (0 = unbounded).
func NewConverge(nPaths, capacity int) *Converge {
	c := new(Converge)
	c.Reset(nPaths, capacity)
	return c
}

// Reset empties the convergence point and gives it nPaths sub-path
// FIFOs of the given capacity, keeping the FIFOs it already has.
func (c *Converge) Reset(nPaths, capacity int) {
	c.paths = sim.Resize(c.paths, nPaths)
	for i, q := range c.paths {
		if q == nil {
			c.paths[i] = sim.NewQueue[isa.Request](capacity)
		} else {
			q.Reset(capacity)
		}
	}
	c.rr = 0
}

// NPaths returns the number of sub-paths.
func (c *Converge) NPaths() int { return len(c.paths) }

// CanPush reports whether sub-path i has room.
func (c *Converge) CanPush(i int) bool { return c.paths[i].CanPush() }

// Push enqueues a request (or OrderLight copy) on sub-path i.
func (c *Converge) Push(i int, r isa.Request) { c.paths[i].Push(r) }

// Len returns the total number of queued entries across sub-paths.
func (c *Converge) Len() int {
	n := 0
	for _, p := range c.paths {
		n += p.Len()
	}
	return n
}

// Pop emits the next request from the convergence point, or ok=false if
// nothing can proceed this cycle. At most one request is emitted per
// call, modeling a single downstream slot per cycle. Heads are
// inspected in place; only the emitted request is copied.
func (c *Converge) Pop() (isa.Request, bool) {
	if r, ok := c.popMerged(); ok {
		return r, true
	}
	// Otherwise drain a normal request, round-robin across sub-paths.
	// Sub-paths headed by a waiting OrderLight copy are blocked.
	for k := 0; k < len(c.paths); k++ {
		i := (c.rr + k) % len(c.paths)
		h := c.paths[i].Head()
		if h == nil || h.Kind == isa.KindOrderLight {
			continue
		}
		c.rr = (i + 1) % len(c.paths)
		return c.paths[i].Pop()
	}
	return isa.Request{}, false
}

// PopBest behaves like Pop but, when several sub-path heads are
// eligible, picks the one the comparison function prefers instead of
// round-robin. Used by the sequence-number baseline, whose memory
// controller must drain requests in warp sequence order.
func (c *Converge) PopBest(better func(a, b *isa.Request) bool) (isa.Request, bool) {
	if r, ok := c.popMerged(); ok {
		return r, true
	}
	best := -1
	var bestReq *isa.Request
	for i := range c.paths {
		h := c.paths[i].Head()
		if h == nil || h.Kind == isa.KindOrderLight {
			continue
		}
		if best < 0 || better(h, bestReq) {
			best, bestReq = i, h
		}
	}
	if best < 0 {
		return isa.Request{}, false
	}
	return c.paths[best].Pop()
}

// popMerged completes a merge if it can: it finds an OrderLight copy at
// a head whose sibling copies are all at their heads too, retires every
// copy and returns the single merged packet.
func (c *Converge) popMerged() (isa.Request, bool) {
	for i := range c.paths {
		h := c.paths[i].Head()
		if h == nil || h.Kind != isa.KindOrderLight || !c.mergeReady(h) {
			continue
		}
		r := Replicate(*h, 0)
		c.popCopies(r.ID)
		return r, true
	}
	return isa.Request{}, false
}

// mergeReady reports whether every copy of packet h is at the head of
// some sub-path.
func (c *Converge) mergeReady(h *isa.Request) bool {
	if h.Copies == 0 {
		return true // single-path packet: nothing to merge
	}
	n := 0
	for _, p := range c.paths {
		if hd := p.Head(); hd != nil && hd.Kind == isa.KindOrderLight && hd.ID == h.ID {
			n++
		}
	}
	if n > int(h.Copies) {
		panic(fmt.Sprintf("core: %d copies of packet %d at heads, expected at most %d", n, h.ID, h.Copies))
	}
	return n == int(h.Copies)
}

// popCopies removes every head-of-path copy of the packet.
func (c *Converge) popCopies(id uint64) {
	for _, p := range c.paths {
		if hd := p.Head(); hd != nil && hd.Kind == isa.KindOrderLight && hd.ID == id {
			p.Pop()
		}
	}
}
