package cache

import (
	"orderlight/internal/core"
	"orderlight/internal/dram"
	"orderlight/internal/isa"
)

// Slice is one L2 slice.
type Slice struct {
	channel    int
	geom       dram.Geometry
	nSub       int
	groupPaths [][]int // per memory-group, the sub-paths serving its banks
	conv       *core.Converge
	div        *core.Diverge
	tags       *TagArray // nil when caching is disabled

	// OnHostHit, if set, is called when a host load hits in the tag
	// array and is serviced without reaching DRAM.
	OnHostHit func(r isa.Request)

	// Hits and Misses count host-request tag outcomes.
	Hits, Misses int64
}

// NewSlice creates the slice for a channel with nSub sub-partitions and
// a tag array of the given line capacity (0 disables caching entirely —
// every host request forwards).
func NewSlice(channel int, geom dram.Geometry, nSub, tagLines int) *Slice {
	s := new(Slice)
	s.Reset(channel, geom, nSub, tagLines)
	return s
}

// Reset empties the slice and reshapes it, keeping its queues, its tag
// array and its routing tables when the geometry is unchanged.
// OnHostHit stays armed.
func (s *Slice) Reset(channel int, geom dram.Geometry, nSub, tagLines int) {
	if s.div == nil {
		// The routing functions read the slice's current shape, so they
		// are built once and survive every reset.
		s.div = &core.Diverge{
			Route:      func(r isa.Request) int { return int(r.Bank) % s.nSub },
			GroupPaths: func(group int) []int { return s.groupPaths[group] },
		}
		s.conv = new(core.Converge)
	}
	if s.groupPaths == nil || geom != s.geom || nSub != s.nSub {
		// Precompute, per memory-group, the paths that serve at least
		// one bank of the group: GroupPaths runs on the per-cycle
		// CanAccept path and must not allocate.
		s.groupPaths = make([][]int, geom.Groups)
		for g := range s.groupPaths {
			seen := make([]bool, nSub)
			for _, b := range geom.BanksOfGroup(g) {
				p := b % nSub
				if !seen[p] {
					seen[p] = true
					s.groupPaths[g] = append(s.groupPaths[g], p)
				}
			}
		}
	}
	s.channel, s.geom, s.nSub = channel, geom, nSub
	s.div.NPaths = nSub
	s.conv.Reset(nSub, 64)
	switch {
	case tagLines <= 0:
		s.tags = nil
	case s.tags == nil:
		s.tags = NewTagArray(tagLines, 4)
	default:
		s.tags.Reset(tagLines, 4)
	}
	s.Hits, s.Misses = 0, 0
}

// CanAccept reports whether the slice can take the request this cycle.
func (s *Slice) CanAccept(r isa.Request) bool {
	if s.tags != nil && r.Kind == isa.KindHostLoad && s.tags.Contains(r.Addr) {
		return true // will be answered locally
	}
	for _, p := range s.div.Targets(r) {
		if !s.conv.CanPush(p) {
			return false
		}
	}
	return true
}

// Accept routes the request into the sub-partition queues, replicating
// an OrderLight packet across the relevant sub-paths, or answers a host
// load that hits the tag array.
func (s *Slice) Accept(r isa.Request) {
	if s.tags != nil && r.Kind == isa.KindHostLoad {
		if s.tags.Access(r.Addr) {
			s.Hits++
			if s.OnHostHit != nil {
				s.OnHostHit(r)
			}
			return
		}
		s.Misses++
	}
	targets := s.div.Targets(r)
	rep := r
	if r.Kind == isa.KindOrderLight && len(targets) > 1 {
		rep = core.Replicate(r, len(targets))
	}
	for _, p := range targets {
		s.conv.Push(p, rep)
	}
}

// Pop emits the next request toward the L2-to-DRAM queue, merging
// OrderLight copies at the convergence point.
func (s *Slice) Pop() (isa.Request, bool) { return s.conv.Pop() }

// Pending returns the number of requests buffered in the slice.
func (s *Slice) Pending() int { return s.conv.Len() }

// TagArray is a small set-associative cache directory with LRU
// replacement, tracking only presence (the simulator's data lives in
// the DRAM store; L2 data payloads are not modeled). Its ways are
// allocated on the first fill, so a run without host loads never pays
// for them.
type TagArray struct {
	sets  int
	assoc int
	ways  []isa.Addr // set i at [i*assoc, (i+1)*assoc), most-recently-used first
	used  []int      // filled ways per set
}

// NewTagArray creates a tag array with the given total line capacity and
// associativity.
func NewTagArray(lines, assoc int) *TagArray {
	t := new(TagArray)
	t.Reset(lines, assoc)
	return t
}

// Reset empties the tag array and reshapes it, keeping its ways when
// they are large enough.
func (t *TagArray) Reset(lines, assoc int) {
	t.sets, t.assoc = max(lines/assoc, 1), assoc
	if cap(t.ways) < t.sets*t.assoc || cap(t.used) < t.sets {
		t.ways, t.used = nil, nil
		return
	}
	t.ways, t.used = t.ways[:t.sets*t.assoc], t.used[:t.sets]
	clear(t.used)
}

func (t *TagArray) set(a isa.Addr) int { return int(uint64(a) % uint64(t.sets)) }

// setWays returns the filled ways of set si.
func (t *TagArray) setWays(si int) []isa.Addr {
	lo := si * t.assoc
	return t.ways[lo : lo+t.used[si]]
}

// Contains reports presence without updating LRU state.
func (t *TagArray) Contains(a isa.Addr) bool {
	if t.used == nil {
		return false
	}
	for _, x := range t.setWays(t.set(a)) {
		if x == a {
			return true
		}
	}
	return false
}

// Access performs a lookup-and-fill: returns true on hit (refreshing
// LRU), false on miss (allocating the line, evicting LRU if needed).
func (t *TagArray) Access(a isa.Addr) bool {
	if t.used == nil {
		t.ways, t.used = make([]isa.Addr, t.sets*t.assoc), make([]int, t.sets)
	}
	si := t.set(a)
	ways := t.setWays(si)
	for i, x := range ways {
		if x == a {
			copy(ways[1:i+1], ways[:i])
			ways[0] = a
			return true
		}
	}
	if len(ways) < t.assoc {
		t.used[si]++
		ways = ways[:len(ways)+1]
	}
	copy(ways[1:], ways)
	ways[0] = a
	return false
}
