// Package chaos is deterministic fault injection for the
// infrastructure plane: the HTTP path between clients and the olserve
// daemon, and the filesystem underneath the result cache and the
// progress journals.
//
// It mirrors the stateless splitmix64 plan idiom of internal/fault,
// which attacks the *simulated hardware*: one seeded Spec describes
// the whole failure campaign, every decision is a pure hash of
// (seed, class, op index), and therefore a failure sequence is exactly
// replayable from its seed. internal/fault proves the ordering
// machinery correct under attack; this package proves the serving
// stack around it correct under infrastructure fire — the acceptance
// bar stays byte-identical output.
//
// Two injectors consume one Plan:
//
//   - Transport (transport.go) wraps an http.RoundTripper and injects
//     connection resets (after delivery — the ambiguous failure),
//     timeouts, fabricated 5xx and garbage responses, duplicated and
//     delayed deliveries.
//   - NewFS (fs.go) wraps a filesystem and injects ENOSPC, torn
//     writes, fsync failures and rename races into the write path;
//     reads are never faulted, so what the injector tore is discovered
//     the same way a real crash's damage is — at read-back.
package chaos

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
)

// Class enumerates the infrastructure fault families the injector can
// introduce. The first group attacks the network between serve
// clients and the daemon; the second attacks the disk under the cache
// and the journals.
type Class uint8

const (
	// ClassNone disables injection; the zero Spec is a no-op.
	ClassNone Class = iota

	// ClassReset delivers the request to the server, then reports a
	// connection reset to the caller instead of the response. This is
	// the ambiguous failure: the side effect happened, the client
	// cannot know. Surviving it is what idempotency keys are for.
	ClassReset

	// ClassTimeout refuses to send the request at all and reports a
	// timeout. The unambiguous transport failure; plain retry fodder.
	ClassTimeout

	// ClassHTTP500 fabricates a 500 response without contacting the
	// server (an overloaded proxy, a crashing handler).
	ClassHTTP500

	// ClassGarbage fabricates a 200 response whose body is not valid
	// protocol JSON (a truncating proxy, a wedged middlebox).
	ClassGarbage

	// ClassDup delivers the request twice and hands the caller the
	// second response — the retry-amplification double-submit.
	ClassDup

	// ClassDelay delivers the request after a deterministic delay,
	// reordering it against concurrent traffic.
	ClassDelay

	// ClassENOSPC fails a write before any byte lands (full disk).
	ClassENOSPC

	// ClassTorn persists only a prefix of a write, then reports the
	// failure (a crash mid-write). The torn bytes stay on disk for
	// read-back to discover.
	ClassTorn

	// ClassFsyncFail keeps the written data but fails the fsync with
	// EIO — durability unknown, contents intact.
	ClassFsyncFail

	// ClassRenameRace fails the atomic-publish rename as if the
	// temp file had been swept by a concurrent cleaner.
	ClassRenameRace

	classCount
)

// NetClasses lists the transport-plane classes in decision order.
func NetClasses() []Class {
	return []Class{ClassReset, ClassTimeout, ClassHTTP500, ClassGarbage, ClassDup, ClassDelay}
}

// FSClasses lists the filesystem-plane classes in decision order.
func FSClasses() []Class {
	return []Class{ClassENOSPC, ClassTorn, ClassFsyncFail, ClassRenameRace}
}

func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassReset:
		return "reset"
	case ClassTimeout:
		return "timeout"
	case ClassHTTP500:
		return "http500"
	case ClassGarbage:
		return "garbage"
	case ClassDup:
		return "dup"
	case ClassDelay:
		return "delay"
	case ClassENOSPC:
		return "enospc"
	case ClassTorn:
		return "torn"
	case ClassFsyncFail:
		return "fsync"
	case ClassRenameRace:
		return "rename"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// ParseClass converts a class name to a Class.
func ParseClass(s string) (Class, error) {
	for c := Class(1); c < classCount; c++ {
		if c.String() == strings.ToLower(strings.TrimSpace(s)) {
			return c, nil
		}
	}
	if strings.ToLower(strings.TrimSpace(s)) == "none" || strings.TrimSpace(s) == "" {
		return ClassNone, nil
	}
	return ClassNone, fmt.Errorf("chaos: unknown class %q", s)
}

// Spec is the seeded description of one infrastructure chaos plan: a
// rate in (0, 1] per active class. It is a pure value — two plans
// built from equal specs make identical decisions.
type Spec struct {
	// Seed keys every injection decision. Decisions are stateless
	// hashes of (Seed, class, per-domain op index), so a fixed seed
	// replays the identical fault sequence over the identical op
	// sequence.
	Seed uint64

	// Rates maps each active class to its injection rate in (0, 1].
	Rates map[Class]float64
}

// Active reports whether the spec injects anything.
func (s Spec) Active() bool {
	for _, r := range s.Rates {
		if r > 0 {
			return true
		}
	}
	return false
}

// NetActive reports whether any transport-plane class is armed.
func (s Spec) NetActive() bool {
	for _, c := range NetClasses() {
		if s.Rates[c] > 0 {
			return true
		}
	}
	return false
}

// FSActive reports whether any filesystem-plane class is armed.
func (s Spec) FSActive() bool {
	for _, c := range FSClasses() {
		if s.Rates[c] > 0 {
			return true
		}
	}
	return false
}

// Validate reports structurally impossible specs.
func (s Spec) Validate() error {
	for c, r := range s.Rates {
		if c == ClassNone || c >= classCount {
			return fmt.Errorf("chaos: unknown class %d", uint8(c))
		}
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 || r > 1 {
			return fmt.Errorf("chaos: %v rate %v outside [0, 1]", c, r)
		}
	}
	return nil
}

// String renders the spec in the canonical form ParseSpec accepts:
// active classes in declaration order, e.g. "reset=0.2,enospc=0.1".
// The seed is carried separately (-chaos-seed), not in the string.
func (s Spec) String() string {
	var parts []string
	for c := Class(1); c < classCount; c++ {
		if r := s.Rates[c]; r > 0 {
			parts = append(parts, fmt.Sprintf("%v=%s", c, strconv.FormatFloat(r, 'g', -1, 64)))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses a chaos plan description: comma-separated
// class=rate pairs ("reset=0.2,enospc=0.1"), with two group
// shorthands — "net=R" arms every transport class at rate R and
// "fs=R" every filesystem class. Entries apply left to right, so a
// later class entry overrides the group that armed it
// ("net=0.3,dup=0" arms every transport class except dup).
// "" and "none" parse to the inactive zero Spec.
func ParseSpec(s string) (Spec, error) {
	spec := Spec{Rates: map[Class]float64{}}
	trimmed := strings.TrimSpace(s)
	if trimmed == "" || strings.EqualFold(trimmed, "none") {
		return Spec{}, nil
	}
	for _, part := range strings.Split(trimmed, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return Spec{}, fmt.Errorf("chaos: malformed entry %q (want class=rate)", part)
		}
		rate, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return Spec{}, fmt.Errorf("chaos: bad rate in %q: %v", part, err)
		}
		if math.IsNaN(rate) || math.IsInf(rate, 0) || rate < 0 || rate > 1 {
			return Spec{}, fmt.Errorf("chaos: rate in %q outside [0, 1]", part)
		}
		var targets []Class
		switch strings.ToLower(strings.TrimSpace(name)) {
		case "net":
			targets = NetClasses()
		case "fs":
			targets = FSClasses()
		default:
			c, err := ParseClass(name)
			if err != nil {
				return Spec{}, err
			}
			if c == ClassNone {
				return Spec{}, fmt.Errorf("chaos: malformed entry %q (want class=rate)", part)
			}
			targets = []Class{c}
		}
		for _, c := range targets {
			if rate == 0 {
				delete(spec.Rates, c)
			} else {
				spec.Rates[c] = rate
			}
		}
	}
	if len(spec.Rates) == 0 {
		return Spec{}, nil
	}
	return spec, nil
}

// opDomain indexes the independent op counters. Each injection point
// draws from its own monotone sequence, so the decision for "the Nth
// write" does not depend on how many renames happened before it.
type opDomain uint8

const (
	opNet opDomain = iota
	opWrite
	opSync
	opRename
	opDomainCount
)

func (d opDomain) String() string {
	switch d {
	case opNet:
		return "net"
	case opWrite:
		return "write"
	case opSync:
		return "sync"
	case opRename:
		return "rename"
	default:
		return fmt.Sprintf("op(%d)", uint8(d))
	}
}

// Plan is a live chaos plan shared by every injector of one process
// (transport wrapper, filesystem shims). Decisions are stateless seed
// hashes over per-domain op indexes; the only mutable state is the op
// counters and the injection tally. A nil *Plan injects nothing, so
// call sites need no plan-presence branches.
type Plan struct {
	spec       Spec
	thresholds [classCount]uint64
	logf       func(format string, args ...any)
	seq        [opDomainCount]atomic.Uint64
	counts     [classCount]atomic.Int64
}

// NewPlan materializes a spec into a live plan. logf, when non-nil,
// receives one line per injected fault ("chaos: net #12 reset") — the
// replayable trace the smoke drill diffs across runs. An inactive
// spec yields a nil plan.
func NewPlan(s Spec, logf func(format string, args ...any)) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if !s.Active() {
		return nil, nil
	}
	p := &Plan{spec: s, logf: logf}
	for c, r := range s.Rates {
		if r <= 0 {
			continue
		}
		if r >= 1 {
			p.thresholds[c] = math.MaxUint64
		} else {
			p.thresholds[c] = uint64(r * float64(math.MaxUint64))
		}
	}
	return p, nil
}

// Spec returns the spec the plan was built from.
func (p *Plan) Spec() Spec {
	if p == nil {
		return Spec{}
	}
	return p.spec
}

// mix is SplitMix64's finalizer — the same stateless per-event hash
// internal/fault uses for ordering faults.
func mix(x uint64) uint64 {
	x += 0x9e37_79b9_7f4a_7c15
	x = (x ^ (x >> 30)) * 0xbf58_476d_1ce4_e5b9
	x = (x ^ (x >> 27)) * 0x94d0_49bb_1331_11eb
	return x ^ (x >> 31)
}

// salt keeps the decision streams of different classes statistically
// independent under equal seeds (the same role as internal/fault's
// per-class salt constants, generated instead of enumerated).
func salt(c Class) uint64 {
	return mix(0xc4a0_5eed_0000_0000 + uint64(c))
}

func (p *Plan) decide(c Class, idx uint64) bool {
	th := p.thresholds[c]
	return th != 0 && mix(p.spec.Seed^salt(c)^idx) <= th
}

// next draws the next op index in a domain and returns the first
// armed class (in the given decision order) that fires on it, with
// the index for trace labeling.
func (p *Plan) next(d opDomain, order []Class) (Class, uint64) {
	if p == nil {
		return ClassNone, 0
	}
	idx := p.seq[d].Add(1) - 1
	for _, c := range order {
		if p.decide(c, idx) {
			p.counts[c].Add(1)
			if p.logf != nil {
				p.logf("chaos: %v #%d %v", d, idx, c)
			}
			return c, idx
		}
	}
	return ClassNone, idx
}

// NextNet draws the fault decision for the next outbound HTTP request.
func (p *Plan) NextNet() (Class, uint64) { return p.next(opNet, NetClasses()) }

// NextWrite draws the fault decision for the next file write.
// Candidate classes: ENOSPC, torn.
func (p *Plan) NextWrite() (Class, uint64) {
	return p.next(opWrite, []Class{ClassENOSPC, ClassTorn})
}

// NextSync draws the fault decision for the next fsync.
func (p *Plan) NextSync() (Class, uint64) {
	return p.next(opSync, []Class{ClassFsyncFail})
}

// NextRename draws the fault decision for the next rename.
func (p *Plan) NextRename() (Class, uint64) {
	return p.next(opRename, []Class{ClassRenameRace})
}

// Injections returns the total number of faults injected so far.
func (p *Plan) Injections() int64 {
	if p == nil {
		return 0
	}
	var n int64
	for i := range p.counts {
		n += p.counts[i].Load()
	}
	return n
}

// Report renders the non-zero injection tallies deterministically,
// e.g. "reset 3, enospc 1", or "none".
func (p *Plan) Report() string {
	if p == nil {
		return "none"
	}
	var parts []string
	for c := Class(1); c < classCount; c++ {
		if n := p.counts[c].Load(); n > 0 {
			parts = append(parts, fmt.Sprintf("%v %d", c, n))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ", ")
}
