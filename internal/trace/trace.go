// Package trace records the journey of individual requests through the
// memory pipe of Figure 6: when each request enters the interconnect,
// reaches its L2 slice, enters the L2-to-DRAM path, is accepted by the
// memory controller, and finally issues to the DRAM device. The trace
// is a bounded ring buffer, cheap enough to leave armed during ordinary
// runs, and renders either as a raw event log or as a per-request
// lifecycle table (used by cmd/oltrace).
package trace

import (
	"fmt"
	"sort"
	"strings"

	"orderlight/internal/isa"
	"orderlight/internal/sim"
)

// Stage identifies a measurement point in the memory pipe.
type Stage uint8

const (
	// StageInject is the request entering the interconnect at the SM.
	StageInject Stage = iota
	// StageL2 is arrival at the L2 slice (after the interconnect pipe).
	StageL2
	// StageToDRAM is entry into the L2-to-DRAM path (after the slice's
	// sub-partition queues, i.e. after any copy-and-merge).
	StageToDRAM
	// StageMC is acceptance into the memory controller's queues.
	StageMC
	// StageDevice is the column command (or exec slot) issuing to the
	// DRAM device — the completion point for PIM commands.
	StageDevice

	numStages
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	names := [...]string{"inject", "l2", "to-dram", "mc", "device"}
	if int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("Stage(%d)", uint8(s))
}

// Event is one stage crossing.
type Event struct {
	At      sim.Time
	Stage   Stage
	Channel int
	Req     isa.Request
}

// Tracer is a bounded ring buffer of events. The zero Tracer is not
// usable; create one with New. Not safe for concurrent use (the
// simulator is single-threaded).
type Tracer struct {
	ring    []Event
	next    int
	wrapped bool
	total   int64
}

// New creates a tracer retaining the most recent max events.
func New(max int) *Tracer {
	if max <= 0 {
		max = 1
	}
	return &Tracer{ring: make([]Event, 0, max)}
}

// Record appends an event.
func (t *Tracer) Record(at sim.Time, stage Stage, r isa.Request) {
	t.total++
	ev := Event{At: at, Stage: stage, Channel: int(r.Channel), Req: r}
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, ev)
		return
	}
	t.ring[t.next] = ev
	t.next = (t.next + 1) % cap(t.ring)
	t.wrapped = true
}

// Total returns how many events were recorded over the tracer's life
// (including any that fell out of the ring).
func (t *Tracer) Total() int64 { return t.total }

// Dropped returns how many recorded events have fallen out of the ring
// buffer. A nonzero count means renders from this tracer are truncated
// (the oldest events are gone) and callers should say so.
func (t *Tracer) Dropped() int64 { return t.total - int64(len(t.ring)) }

// Events returns the retained events in chronological order.
func (t *Tracer) Events() []Event {
	if !t.wrapped {
		out := make([]Event, len(t.ring))
		copy(out, t.ring)
		return out
	}
	out := make([]Event, 0, cap(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Lifecycle is the per-request stage timeline assembled from a trace.
type Lifecycle struct {
	Req    isa.Request
	Stamps [numStages]sim.Time // 0 = not observed; index by Stage
}

// Latency returns the inject-to-device latency, or 0 if either endpoint
// was not observed.
func (l Lifecycle) Latency() sim.Time {
	if l.Stamps[StageInject] == 0 || l.Stamps[StageDevice] == 0 {
		return 0
	}
	return l.Stamps[StageDevice] - l.Stamps[StageInject]
}

// Lifecycles groups the retained events by request ID, ordered by
// injection time, then by ID among requests injected in the same
// cycle. Requests with no retained inject event are dropped.
func (t *Tracer) Lifecycles() []Lifecycle {
	byID := map[uint64]*Lifecycle{}
	for _, ev := range t.Events() {
		lc, ok := byID[ev.Req.ID]
		if !ok {
			lc = &Lifecycle{Req: ev.Req}
			byID[ev.Req.ID] = lc
		}
		lc.Stamps[ev.Stage] = ev.At
	}
	out := make([]Lifecycle, 0, len(byID))
	for _, lc := range byID {
		if lc.Stamps[StageInject] != 0 {
			out = append(out, *lc)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stamps[StageInject] != out[j].Stamps[StageInject] {
			return out[i].Stamps[StageInject] < out[j].Stamps[StageInject]
		}
		return out[i].Req.ID < out[j].Req.ID
	})
	return out
}

// Timeline renders up to limit request lifecycles as an aligned table
// with stage times in core cycles relative to the first injection.
func (t *Tracer) Timeline(limit int) string {
	lcs := t.Lifecycles()
	if len(lcs) == 0 {
		return "(no traced requests)\n"
	}
	base := lcs[0].Stamps[StageInject]
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %8s %8s %8s %8s %8s %9s\n",
		"request", "inject", "l2", "to-dram", "mc", "device", "latency")
	cyc := func(t sim.Time) string {
		if t == 0 {
			return "-"
		}
		return fmt.Sprintf("%d", (t - base).CoreCycles())
	}
	for i, lc := range lcs {
		if i >= limit {
			fmt.Fprintf(&b, "... (%d more)\n", len(lcs)-limit)
			break
		}
		name := fmt.Sprintf("#%d %v ch%d g%d", lc.Req.ID, lc.Req.Kind, lc.Req.Channel, lc.Req.Group)
		fmt.Fprintf(&b, "%-28s %8s %8s %8s %8s %8s %8dc\n",
			name, cyc(lc.Stamps[StageInject]), cyc(lc.Stamps[StageL2]),
			cyc(lc.Stamps[StageToDRAM]), cyc(lc.Stamps[StageMC]),
			cyc(lc.Stamps[StageDevice]), lc.Latency().CoreCycles())
	}
	return b.String()
}
