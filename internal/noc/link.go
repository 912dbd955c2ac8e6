package noc

import (
	"fmt"

	"orderlight/internal/core"
	"orderlight/internal/isa"
	"orderlight/internal/sim"
)

// Link is a multi-route, fixed-latency hop with bounded per-route
// buffering.
type Link struct {
	routes []*sim.Pipe[isa.Request]
	rr     int

	// Merges counts completed OrderLight copy-merges at the receiver.
	Merges int64
}

// NewLink creates a link with the given number of parallel routes, each
// with the same transport latency and per-route capacity.
func NewLink(routes int, latency sim.Time, capPerRoute int) *Link {
	l := new(Link)
	l.Reset(routes, latency, capPerRoute)
	return l
}

// Reset empties the link and reshapes it, keeping the route pipes it
// already has.
func (l *Link) Reset(routes int, latency sim.Time, capPerRoute int) {
	if routes < 1 {
		panic("noc: link needs at least one route")
	}
	l.routes = sim.Resize(l.routes, routes)
	for i, rt := range l.routes {
		if rt == nil {
			l.routes[i] = sim.NewPipe[isa.Request](latency, capPerRoute)
		} else {
			rt.Reset(latency, capPerRoute)
		}
	}
	l.rr, l.Merges = 0, 0
}

// Routes returns the number of parallel routes.
func (l *Link) Routes() int { return len(l.routes) }

// Len returns the number of in-flight entries across routes.
func (l *Link) Len() int {
	n := 0
	for _, r := range l.routes {
		n += r.Len()
	}
	return n
}

// NextReady returns the earliest arrival time of any in-flight entry,
// or sim.TimeInf when the link is empty. It is the link's quiescence
// hint: the receiving end cannot observe any change before that
// instant. (For a replicated OrderLight packet the merge completes only
// when the slowest copy arrives; reporting the fastest is conservative,
// which is safe — the consumer just observes nothing yet.)
func (l *Link) NextReady() sim.Time {
	next := sim.TimeInf
	for _, rt := range l.routes {
		if t := rt.NextReady(); t < next {
			next = t
		}
	}
	return next
}

// CanPush reports whether the request can enter the link this cycle:
// any route with room for a normal request, every route for an
// OrderLight packet (which must be replicated onto all of them).
func (l *Link) CanPush(r isa.Request) bool {
	if r.Kind == isa.KindOrderLight {
		for _, rt := range l.routes {
			if !rt.CanPush() {
				return false
			}
		}
		return true
	}
	for _, rt := range l.routes {
		if rt.CanPush() {
			return true
		}
	}
	return false
}

// Push routes the request: least-occupied route for normal requests
// (the adaptive-routing reordering source), replication across all
// routes for OrderLight packets.
func (l *Link) Push(now sim.Time, r isa.Request) {
	if r.Kind == isa.KindOrderLight {
		rep := r
		if len(l.routes) > 1 {
			rep = core.Replicate(r, len(l.routes))
		}
		for _, rt := range l.routes {
			rt.Push(now, rep)
		}
		return
	}
	best := -1
	for i, rt := range l.routes {
		if !rt.CanPush() {
			continue
		}
		if best < 0 || rt.Len() < l.routes[best].Len() {
			best = i
		}
	}
	if best < 0 {
		panic(fmt.Sprintf("noc: push into full link (%v)", r))
	}
	l.routes[best].Push(now, r)
}

// Peek returns, in place, the request Pop would emit this cycle, or nil.
// For a merged OrderLight packet it is one of the copies: Pop clears
// its Copies count. The selection is deterministic, so a Peek followed
// by a Pop in the same cycle takes the same request — the pattern the
// machine uses to apply downstream backpressure. The pointer is valid
// until the next Push or Pop.
func (l *Link) Peek(now sim.Time) *isa.Request {
	if h := l.mergeHead(now); h != nil {
		return h
	}
	if i := l.nextRoute(now); i >= 0 {
		return l.routes[i].Head(now)
	}
	return nil
}

// Pop emits the next request at the receiving end, at most one per
// call. A route whose head is a waiting OrderLight copy is blocked; the
// merged packet is emitted once every copy has arrived at its route's
// head, and no younger request overtakes it.
func (l *Link) Pop(now sim.Time) (isa.Request, bool) {
	if h := l.mergeHead(now); h != nil {
		r := core.Replicate(*h, 0)
		for _, o := range l.routes {
			if oh := o.Head(now); oh != nil && oh.Kind == isa.KindOrderLight && oh.ID == r.ID {
				o.Pop(now)
			}
		}
		l.Merges++
		return r, true
	}
	i := l.nextRoute(now)
	if i < 0 {
		return isa.Request{}, false
	}
	l.rr = (i + 1) % len(l.routes)
	return l.routes[i].Pop(now)
}

// mergeHead returns the first route head that is an OrderLight copy
// whose sibling copies have all arrived, or nil.
func (l *Link) mergeHead(now sim.Time) *isa.Request {
	for _, rt := range l.routes {
		if h := rt.Head(now); h != nil && h.Kind == isa.KindOrderLight && l.mergeReady(now, h) {
			return h
		}
	}
	return nil
}

// nextRoute returns the round-robin pick among routes whose ready head
// is a normal request, or -1.
func (l *Link) nextRoute(now sim.Time) int {
	for k := 0; k < len(l.routes); k++ {
		i := (l.rr + k) % len(l.routes)
		if h := l.routes[i].Head(now); h != nil && h.Kind != isa.KindOrderLight {
			return i
		}
	}
	return -1
}

// mergeReady reports whether all copies of h have arrived at their
// routes' heads.
func (l *Link) mergeReady(now sim.Time, h *isa.Request) bool {
	if h.Copies == 0 {
		return true
	}
	n := 0
	for _, rt := range l.routes {
		if hd := rt.Head(now); hd != nil && hd.Kind == isa.KindOrderLight && hd.ID == h.ID {
			n++
		}
	}
	return n == int(h.Copies)
}
