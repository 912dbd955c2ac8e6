package fault

import (
	"fmt"
	"math"
	"strings"
)

// Class enumerates the ordering-violation families the injector can
// introduce. Each class attacks a different layer of the ordering
// machinery, mirroring the hazard taxonomy of the consistency
// literature: primitives that never leave the core, primitives the
// controller honors only partially, an arbiter that ignores the
// tracker, and a device whose write-back lags its acknowledgment.
type Class uint8

const (
	// ClassNone disables injection; the zero Spec is a no-op.
	ClassNone Class = iota

	// ClassDropOrdering silently no-ops Fence and OrderLight
	// instructions at host issue: the warp retires the primitive
	// without waiting and without emitting a packet. With rate 1 and a
	// fence-primitive kernel this is exactly the paper's "no fence,
	// functionally incorrect" Figure 5 datapoint.
	ClassDropOrdering

	// ClassWeakenDrain weakens an OrderLight packet's drain semantics
	// at the memory controller: the packet's extra (cross-group)
	// targets are not programmed into the ordering tracker, and a
	// packet with no extra groups is dropped at the tracker entirely —
	// the epoch it should close is released early.
	ClassWeakenDrain

	// ClassIllegalReorder lets the FR-FCFS arbiter issue selected
	// transactions even when the ordering tracker forbids it, hoisting
	// younger accesses past in-flight older epochs.
	ClassIllegalReorder

	// ClassDelayVisibility defers the functional execution (write-back
	// visibility) of selected PIM commands by Delay memory cycles while
	// acknowledging them immediately — the device claims completion
	// before its state change is visible.
	ClassDelayVisibility
)

// Classes lists the active (injectable) fault classes.
func Classes() []Class {
	return []Class{ClassDropOrdering, ClassWeakenDrain, ClassIllegalReorder, ClassDelayVisibility}
}

func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassDropOrdering:
		return "drop"
	case ClassWeakenDrain:
		return "weaken"
	case ClassIllegalReorder:
		return "reorder"
	case ClassDelayVisibility:
		return "delay"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// ParseClass converts a class name ("drop", "weaken", "reorder",
// "delay" or "none") to a Class.
func ParseClass(s string) (Class, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "none", "":
		return ClassNone, nil
	case "drop":
		return ClassDropOrdering, nil
	case "weaken":
		return ClassWeakenDrain, nil
	case "reorder":
		return ClassIllegalReorder, nil
	case "delay":
		return ClassDelayVisibility, nil
	default:
		return ClassNone, fmt.Errorf("fault: unknown class %q (want drop, weaken, reorder, delay or none)", s)
	}
}

// DefaultDelay is the visibility lag (in memory cycles) a
// ClassDelayVisibility spec applies when Delay is unset.
const DefaultDelay = 64

// Spec is the seeded description of one injection plan. It is a pure
// value: two plans built from equal specs make identical decisions, so
// a faulted run is as deterministic as an unfaulted one.
type Spec struct {
	Class Class

	// Seed keys every injection decision. Decisions are stateless
	// hashes of (Seed, class, event key), so they are independent of
	// event interleaving — the dense and skip-ahead engines, and any
	// worker-pool schedule, see the same choices.
	Seed uint64

	// Rate is the fraction of candidate events faulted, in (0, 1];
	// values <= 0 mean 1 (every candidate).
	Rate float64

	// Delay is the visibility lag in memory cycles for
	// ClassDelayVisibility; values <= 0 mean DefaultDelay.
	Delay int64
}

// Active reports whether the spec injects anything; the zero Spec does
// not.
func (s Spec) Active() bool { return s.Class != ClassNone }

// Validate reports structurally impossible specs.
func (s Spec) Validate() error {
	if s.Class > ClassDelayVisibility {
		return fmt.Errorf("fault: unknown class %d", s.Class)
	}
	if math.IsNaN(s.Rate) || math.IsInf(s.Rate, 0) || s.Rate > 1 {
		return fmt.Errorf("fault: rate %v outside (0, 1]", s.Rate)
	}
	return nil
}

func (s Spec) String() string {
	if !s.Active() {
		return "none"
	}
	out := fmt.Sprintf("%v/seed=%d", s.Class, s.Seed)
	if s.Rate > 0 && s.Rate < 1 {
		out += fmt.Sprintf("/rate=%g", s.Rate)
	}
	if s.Class == ClassDelayVisibility {
		out += fmt.Sprintf("/lag=%d", s.delay())
	}
	return out
}

func (s Spec) rate() float64 {
	if s.Rate <= 0 || s.Rate > 1 {
		return 1
	}
	return s.Rate
}

func (s Spec) delay() int64 {
	if s.Delay <= 0 {
		return DefaultDelay
	}
	return s.Delay
}

// Point identifies one kind of injection event, for reporting.
type Point uint8

const (
	PointFenceDropped Point = iota // fence no-oped at host issue
	PointOLDropped                 // OrderLight no-oped at host issue or controller
	PointOLWeakened                // OrderLight tracker groups skipped at the controller
	PointReordered                 // transaction issued past a closed epoch
	PointDelayedExec               // PIM command's visibility deferred
	pointCount
)

func (p Point) String() string {
	switch p {
	case PointFenceDropped:
		return "fence-dropped"
	case PointOLDropped:
		return "ol-dropped"
	case PointOLWeakened:
		return "ol-weakened"
	case PointReordered:
		return "reordered"
	case PointDelayedExec:
		return "delayed-exec"
	default:
		return fmt.Sprintf("point(%d)", uint8(p))
	}
}

// Plan is a live injection plan threaded through one machine: the SMs
// (or OoO cores) consult it at primitive issue, the memory controllers
// at tracker programming, arbitration and PIM write-back. Decision
// methods are pure and nil-safe — a nil *Plan always answers "no
// fault" — so component hot paths need no plan-presence branches.
// Recording methods count injections as they actually happen. A Plan
// belongs to exactly one machine run and is not safe for concurrent
// use: the run records on its own goroutine and Report is read after
// it. Decisions themselves are stateless seed hashes, so plans stay
// engine-neutral.
type Plan struct {
	spec      Spec
	threshold uint64
	delay     int64
	counts    [pointCount]int64
}

// NewPlan materializes a spec into a live plan.
func NewPlan(s Spec) *Plan {
	r := s.rate()
	th := uint64(math.MaxUint64)
	if r < 1 {
		th = uint64(r * float64(math.MaxUint64))
	}
	return &Plan{spec: s, threshold: th, delay: s.delay()}
}

// Spec returns the spec the plan was built from.
func (p *Plan) Spec() Spec {
	if p == nil {
		return Spec{}
	}
	return p.spec
}

// Per-class salts keep the decision streams of different classes (and
// call sites) statistically independent even under equal seeds.
const (
	saltDrop    = 0x5eed_d60b_0000_0001
	saltWeaken  = 0x5eed_3ea7_0000_0002
	saltReorder = 0x5eed_4e04_0000_0003
	saltDelay   = 0x5eed_de1a_0000_0004
)

// mix is SplitMix64's finalizer: a cheap, well-distributed 64-bit hash
// used for stateless per-event decisions.
func mix(x uint64) uint64 {
	x += 0x9e37_79b9_7f4a_7c15
	x = (x ^ (x >> 30)) * 0xbf58_476d_1ce4_e5b9
	x = (x ^ (x >> 27)) * 0x94d0_49bb_1331_11eb
	return x ^ (x >> 31)
}

func (p *Plan) decide(class Class, salt, key uint64) bool {
	if p == nil || p.spec.Class != class {
		return false
	}
	return mix(p.spec.Seed^salt^key) <= p.threshold
}

// ShouldDropOrdering reports whether the ordering instruction at the
// given warp and pc is no-oped at issue (ClassDropOrdering). Keyed by
// static instruction location so the host's stall classifier, issue
// step and quiescence hint always agree about one instruction.
func (p *Plan) ShouldDropOrdering(warp, pc int) bool {
	return p.decide(ClassDropOrdering, saltDrop, uint64(uint32(warp))<<32|uint64(uint32(pc)))
}

// ShouldWeakenDrain reports whether the OrderLight packet carried by
// request id has its tracker programming weakened (ClassWeakenDrain).
func (p *Plan) ShouldWeakenDrain(id uint64) bool {
	return p.decide(ClassWeakenDrain, saltWeaken, id)
}

// ShouldBypassOrdering reports whether the arbiter may issue request id
// even while its epoch is not yet drained (ClassIllegalReorder).
func (p *Plan) ShouldBypassOrdering(id uint64) bool {
	return p.decide(ClassIllegalReorder, saltReorder, id)
}

// DelayExec reports whether the PIM command carried by request id has
// its functional execution deferred, and by how many memory cycles
// (ClassDelayVisibility).
func (p *Plan) DelayExec(id uint64) (int64, bool) {
	if !p.decide(ClassDelayVisibility, saltDelay, id) {
		return 0, false
	}
	return p.delay, true
}

// Record counts one injection at the given point.
func (p *Plan) Record(pt Point) { p.RecordN(pt, 1) }

// RecordN counts n injections at the given point.
func (p *Plan) RecordN(pt Point, n int64) {
	if p == nil || n <= 0 {
		return
	}
	p.counts[pt] += n
}

// Injections returns the total number of faults actually injected so
// far (decisions that fired on a live event, not mere plan arming).
func (p *Plan) Injections() int64 {
	if p == nil {
		return 0
	}
	var n int64
	for _, c := range p.counts {
		n += c
	}
	return n
}

// Report snapshots the plan's injection accounting.
func (p *Plan) Report() Report {
	r := Report{Class: ClassNone}
	if p == nil {
		return r
	}
	r.Class = p.spec.Class
	r.Seed = p.spec.Seed
	r.Points = p.counts
	for _, c := range r.Points {
		r.Injections += c
	}
	return r
}

// Report is the injection accounting of one faulted run.
type Report struct {
	Class      Class
	Seed       uint64
	Injections int64
	Points     [pointCount]int64
}

// String renders the non-zero injection points deterministically, e.g.
// "drop: 12 (fence-dropped 12)".
func (r Report) String() string {
	var pts []string
	for p, n := range r.Points {
		if n > 0 {
			pts = append(pts, fmt.Sprintf("%v %d", Point(p), n))
		}
	}
	if len(pts) == 0 {
		return fmt.Sprintf("%v: 0", r.Class)
	}
	return fmt.Sprintf("%v: %d (%s)", r.Class, r.Injections, strings.Join(pts, ", "))
}
