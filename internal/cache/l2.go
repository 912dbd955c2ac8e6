package cache

import (
	"orderlight/internal/core"
	"orderlight/internal/dram"
	"orderlight/internal/isa"
)

// Slice is one L2 slice.
type Slice struct {
	channel int
	geom    dram.Geometry
	conv    *core.Converge
	div     *core.Diverge
	tags    *TagArray

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
	s := &Slice{
		channel: channel,
		geom:    geom,
		conv:    core.NewConverge(nSub, 64),
	}
	if tagLines > 0 {
		s.tags = NewTagArray(tagLines, 4)
	}
	// Precompute, per memory-group, the paths that serve at least one
	// bank of the group: GroupPaths runs on the per-cycle CanAccept path
	// and must not allocate.
	groupPaths := make([][]int, geom.Groups)
	for g := range groupPaths {
		seen := make([]bool, nSub)
		for _, b := range geom.BanksOfGroup(g) {
			p := b % nSub
			if !seen[p] {
				seen[p] = true
				groupPaths[g] = append(groupPaths[g], p)
			}
		}
	}
	s.div = &core.Diverge{
		NPaths:     nSub,
		Route:      func(r isa.Request) int { return int(r.Bank) % nSub },
		GroupPaths: func(group int) []int { return groupPaths[group] },
	}
	return s
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
// the DRAM store; L2 data payloads are not modeled).
type TagArray struct {
	sets  int
	assoc int
	tags  [][]isa.Addr // per set, most-recently-used first; 0 len = empty way
}

// NewTagArray creates a tag array with the given total line capacity and
// associativity.
func NewTagArray(lines, assoc int) *TagArray {
	sets := lines / assoc
	if sets < 1 {
		sets = 1
	}
	t := &TagArray{sets: sets, assoc: assoc, tags: make([][]isa.Addr, sets)}
	return t
}

func (t *TagArray) set(a isa.Addr) int { return int(uint64(a) % uint64(t.sets)) }

// Contains reports presence without updating LRU state.
func (t *TagArray) Contains(a isa.Addr) bool {
	for _, x := range t.tags[t.set(a)] {
		if x == a {
			return true
		}
	}
	return false
}

// Access performs a lookup-and-fill: returns true on hit (refreshing
// LRU), false on miss (allocating the line, evicting LRU if needed).
func (t *TagArray) Access(a isa.Addr) bool {
	si := t.set(a)
	ways := t.tags[si]
	for i, x := range ways {
		if x == a {
			copy(ways[1:i+1], ways[:i])
			ways[0] = a
			return true
		}
	}
	if len(ways) < t.assoc {
		ways = append(ways, 0)
	}
	copy(ways[1:], ways)
	ways[0] = a
	t.tags[si] = ways
	return false
}
