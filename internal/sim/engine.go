package sim

import (
	"errors"
	"fmt"
	"strings"
)

// ErrDeadline is returned by Engine.Run when the completion predicate did
// not become true before the configured horizon.
var ErrDeadline = errors.New("sim: run exceeded deadline without completing")

// Engine multiplexes one or more clock domains over the shared base-tick
// timeline. On every step it fires the earliest *actionable* clock edge:
// domains whose tickers all report quiescence (via the Worker interface)
// are warped over their dead cycles instead of firing empty edges one
// period at a time. When several domains share an edge time, they fire in
// the order they were added, which keeps the simulation deterministic.
//
// Skip-ahead never changes results: hints are recomputed from current
// state on every step, a too-early hint just fires a no-op edge exactly
// as the dense engine would, and Skipper tickers are credited the elided
// cycles so per-idle-cycle statistics stay byte-identical. SetDense(true)
// restores the naive fire-every-edge engine for cross-checking.
type Engine struct {
	now    Time
	clocks []*Clock
	dense  bool
}

// NewEngine creates an engine with no clocks.
func NewEngine() *Engine { return &Engine{} }

// Reset rewinds the engine to time zero with every clock back at cycle
// zero and dense mode off. Clocks and their tickers stay registered.
func (e *Engine) Reset() {
	e.now, e.dense = 0, false
	for _, c := range e.clocks {
		c.cycle, c.next, c.pending = 0, 0, 0
	}
}

// AddClock creates and registers a clock domain with the given period.
func (e *Engine) AddClock(name string, period Time) *Clock {
	c := NewClock(name, period)
	e.clocks = append(e.clocks, c)
	return c
}

// Now returns the current simulated time in base ticks.
func (e *Engine) Now() Time { return e.now }

// SetDense toggles the naive dense engine: every clock edge fires even
// when all tickers are quiescent. Results are identical either way; the
// dense engine exists as the reference for parity tests and as an escape
// hatch when debugging a suspect NextWork hint.
func (e *Engine) SetDense(d bool) { e.dense = d }

// Dense reports whether the naive dense engine is active.
func (e *Engine) Dense() bool { return e.dense }

// scanNext computes each clock's next actionable edge (cached on the
// clock for fireAt) and returns the earliest. When every domain reports
// full quiescence the scan falls back to the earliest raw edge, so an
// idle simulation still creeps forward dense-style toward its deadline
// instead of jumping to infinity. This helper is the single next-edge
// scan shared by Step and RunFor.
func (e *Engine) scanNext() Time {
	next := TimeInf
	for _, c := range e.clocks {
		c.pending = c.workEdge(e.dense)
		if c.pending < next {
			next = c.pending
		}
	}
	if next == TimeInf {
		for _, c := range e.clocks {
			c.pending = c.next
			if c.pending < next {
				next = c.pending
			}
		}
	}
	return next
}

// fireAt warps time to t and fires every clock whose pending edge lands
// on that instant, in registration order.
func (e *Engine) fireAt(t Time) {
	e.now = t
	for _, c := range e.clocks {
		if c.pending == t {
			c.advanceTo(t)
			c.edge()
		}
	}
}

// Step advances to the next actionable clock edge and fires every clock
// whose edge lands on that instant. It reports false when there are no
// clocks at all.
func (e *Engine) Step() bool {
	if len(e.clocks) == 0 {
		return false
	}
	e.fireAt(e.scanNext())
	return true
}

// Run steps the simulation until done() reports true (checked between
// steps) or the deadline in base ticks passes, in which case ErrDeadline
// is returned wrapped with the elapsed time and a report of what each
// clock domain was still waiting on.
func (e *Engine) Run(done func() bool, deadline Time) error {
	for !done() {
		if e.now >= deadline {
			return e.DeadlineError()
		}
		if !e.Step() {
			return errors.New("sim: no clocks registered")
		}
	}
	return nil
}

// RunUntil steps the simulation until done() reports true or the next
// actionable edge lies beyond limit, whichever comes first, and reports
// whether done() became true. Unlike RunFor it never warps now to the
// limit: the engine stops *between* events with every clock untouched,
// so a later RunUntil (or Run) continues with exactly the event sequence
// an uninterrupted run would have produced. This is the windowed run
// primitive behind the machine's abort poll (watchdog and
// cancellation).
func (e *Engine) RunUntil(done func() bool, limit Time) (bool, error) {
	for !done() {
		if len(e.clocks) == 0 {
			return false, errors.New("sim: no clocks registered")
		}
		next := e.scanNext()
		if next > limit {
			return false, nil
		}
		e.fireAt(next)
	}
	return true, nil
}

// DeadlineError builds the error Run returns when the deadline passes:
// ErrDeadline wrapped with the elapsed time and the pending-work report.
// Exported so windowed runners can fail identically to Run.
func (e *Engine) DeadlineError() error {
	return fmt.Errorf("%w (t=%v; %s)", ErrDeadline, e.now, e.pendingReport())
}

// pendingReport describes, per clock domain, the next edge at which it
// still expects work — the context a deadline error needs to point at
// the stuck component.
func (e *Engine) pendingReport() string {
	if len(e.clocks) == 0 {
		return "no clock domains"
	}
	var b strings.Builder
	b.WriteString("pending: ")
	for i, c := range e.clocks {
		if i > 0 {
			b.WriteString(", ")
		}
		switch t := c.workEdge(e.dense); {
		case t == TimeInf:
			fmt.Fprintf(&b, "%s idle at cycle %d", c.name, c.cycle)
		default:
			fmt.Fprintf(&b, "%s has work at t=%v (cycle %d)", c.name, t, c.cycle)
		}
	}
	return b.String()
}

// RunFor advances the simulation by the given number of base ticks,
// firing every actionable edge inside the window.
func (e *Engine) RunFor(d Time) {
	end := e.now + d
	for len(e.clocks) > 0 {
		next := e.scanNext()
		if next > end {
			break
		}
		e.fireAt(next)
	}
	e.now = end
}
