package core

import (
	"testing"
	"testing/quick"

	"orderlight/internal/isa"
	"orderlight/internal/sim"
)

func mkReq(id uint64, kind isa.Kind, bank int) isa.Request {
	return isa.Request{ID: id, Kind: kind, Bank: uint8(bank)}
}

func mkOL(id uint64, group uint8) isa.Request {
	return isa.Request{
		ID:   id,
		Kind: isa.KindOrderLight,
		OL:   isa.OLPacket{PktID: isa.PktIDOrderLight, Group: group},
	}
}

func evenOddDiverge(nPaths int) *Diverge {
	return &Diverge{
		NPaths: nPaths,
		Route:  func(r isa.Request) int { return int(r.Bank) % nPaths },
		GroupPaths: func(int) []int {
			all := make([]int, nPaths)
			for i := range all {
				all[i] = i
			}
			return all
		},
	}
}

func TestDivergeTargetsNormalRequest(t *testing.T) {
	d := evenOddDiverge(2)
	got := d.Targets(mkReq(1, isa.KindPIMLoad, 3))
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("Targets = %v, want [1]", got)
	}
}

func TestDivergeTargetsOrderLightAllPaths(t *testing.T) {
	d := evenOddDiverge(4)
	got := d.Targets(mkOL(9, 0))
	if len(got) != 4 {
		t.Fatalf("Targets = %v, want all 4 paths", got)
	}
}

func TestDivergeTargetsGroupSubset(t *testing.T) {
	// A memory-group served by only two of four sub-partitions must copy
	// the packet to exactly those two (the paper's example in §5.3.2).
	d := &Diverge{
		NPaths: 4,
		Route:  func(r isa.Request) int { return int(r.Bank) % 4 },
		GroupPaths: func(g int) []int {
			if g == 1 {
				return []int{1, 3}
			}
			return []int{0, 1, 2, 3}
		},
	}
	got := d.Targets(mkOL(5, 1))
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Targets = %v, want [1 3]", got)
	}
}

func TestDivergeTargetsExtraGroupsUnion(t *testing.T) {
	d := &Diverge{
		NPaths: 4,
		Route:  func(r isa.Request) int { return 0 },
		GroupPaths: func(g int) []int {
			switch g {
			case 0:
				return []int{0}
			case 1:
				return []int{1}
			default:
				return []int{2, 3}
			}
		},
	}
	r := mkOL(7, 0)
	r.OL.ExtraMask = isa.GroupMask([]uint8{1})
	got := d.Targets(r)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Targets = %v, want [0 1]", got)
	}
}

func TestConvergeMergesAllCopies(t *testing.T) {
	c := NewConverge(2, 0)
	// Path 0: [load1, OLcopy] ; Path 1: [OLcopy].
	c.Push(0, mkReq(1, isa.KindPIMLoad, 0))
	ol := Replicate(mkOL(100, 0), 2)
	c.Push(0, ol)
	c.Push(1, ol)

	// The OL cannot merge yet: path 0's copy is behind load1.
	got, ok := c.Pop()
	if !ok || got.ID != 1 {
		t.Fatalf("Pop = %v,%v, want load1", got, ok)
	}
	// Now both copies are at heads: merge must happen before anything else.
	got, ok = c.Pop()
	if !ok || got.Kind != isa.KindOrderLight || got.ID != 100 {
		t.Fatalf("Pop = %v,%v, want merged OL 100", got, ok)
	}
	if got.Copies != 0 {
		t.Fatalf("merged packet Copies = %d, want 0", got.Copies)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after merge, want 0", c.Len())
	}
}

func TestConvergeBlocksYoungerRequestsBehindCopy(t *testing.T) {
	c := NewConverge(2, 0)
	ol := Replicate(mkOL(50, 0), 2)
	// Path 0: [OLcopy, load2]; Path 1: [load3, OLcopy].
	c.Push(0, ol)
	c.Push(0, mkReq(2, isa.KindPIMLoad, 0))
	c.Push(1, mkReq(3, isa.KindPIMLoad, 1))
	c.Push(1, ol)

	// load3 is ahead of its copy: it may proceed. load2 is behind a
	// waiting copy on path 0 and must NOT overtake the packet.
	got, ok := c.Pop()
	if !ok || got.ID != 3 {
		t.Fatalf("first Pop = %v,%v, want load3", got, ok)
	}
	got, ok = c.Pop()
	if !ok || got.Kind != isa.KindOrderLight {
		t.Fatalf("second Pop = %v,%v, want merged OL", got, ok)
	}
	got, ok = c.Pop()
	if !ok || got.ID != 2 {
		t.Fatalf("third Pop = %v,%v, want load2", got, ok)
	}
}

func TestConvergeSingleCopyPassesThrough(t *testing.T) {
	// Copies == 1: divergence decided only one path was relevant.
	c := NewConverge(2, 0)
	c.Push(1, Replicate(mkOL(8, 2), 1))
	got, ok := c.Pop()
	if !ok || got.Kind != isa.KindOrderLight || got.ID != 8 {
		t.Fatalf("Pop = %v,%v, want OL 8", got, ok)
	}
}

func TestConvergeEmptyPop(t *testing.T) {
	c := NewConverge(2, 0)
	if _, ok := c.Pop(); ok {
		t.Fatal("Pop on empty converge reported ok")
	}
}

func TestConvergeRoundRobinFairness(t *testing.T) {
	c := NewConverge(2, 0)
	for i := 0; i < 3; i++ {
		c.Push(0, mkReq(uint64(10+i), isa.KindPIMLoad, 0))
		c.Push(1, mkReq(uint64(20+i), isa.KindPIMLoad, 1))
	}
	var order []uint64
	for {
		r, ok := c.Pop()
		if !ok {
			break
		}
		order = append(order, r.ID)
	}
	// Round-robin alternates paths: 10,20,11,21,12,22.
	want := []uint64{10, 20, 11, 21, 12, 22}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("drain order = %v, want %v", order, want)
		}
	}
}

// TestConvergeConservationProperty: every pushed normal request emerges
// exactly once; every replicated packet emerges exactly once (merged);
// per-path relative order of normal requests is preserved; and no
// request pushed after a copy on its path ever emerges before the merged
// packet.
func TestConvergeConservationProperty(t *testing.T) {
	f := func(plan []uint8, seed uint64) bool {
		const nPaths = 3
		c := NewConverge(nPaths, 0)
		rng := sim.NewRand(seed)
		type pushRec struct {
			id      uint64
			path    int
			afterOL map[uint64]bool
		}
		var (
			id        uint64 = 1
			pushes    []pushRec
			olPending = map[uint64]bool{} // packets pushed, not yet seen merged
			olOrderBy = map[uint64]map[uint64]bool{}
			// olSeenBefore[r] = set of OL ids that were pushed on r's path
			// before r.
			perPathOLs = make([]map[uint64]bool, nPaths)
		)
		for i := range perPathOLs {
			perPathOLs[i] = map[uint64]bool{}
		}
		copySet := func(m map[uint64]bool) map[uint64]bool {
			out := make(map[uint64]bool, len(m))
			for k := range m {
				out[k] = true
			}
			return out
		}
		for _, op := range plan {
			if op%4 == 0 { // push an OrderLight on a random subset of paths
				paths := []int{}
				for p := 0; p < nPaths; p++ {
					if rng.Bool() {
						paths = append(paths, p)
					}
				}
				if len(paths) == 0 {
					paths = []int{rng.Intn(nPaths)}
				}
				ol := Replicate(mkOL(id, 0), len(paths))
				for _, p := range paths {
					c.Push(p, ol)
					perPathOLs[p][id] = true
				}
				olPending[id] = true
				olOrderBy[id] = map[uint64]bool{}
				id++
			} else { // push a normal request on one path
				p := int(op) % nPaths
				r := mkReq(id, isa.KindPIMLoad, p)
				c.Push(p, r)
				pushes = append(pushes, pushRec{id: id, path: p, afterOL: copySet(perPathOLs[p])})
				id++
			}
		}
		// Drain fully.
		seen := map[uint64]int{}
		mergedAt := map[uint64]int{}
		var drained []uint64
		for {
			r, ok := c.Pop()
			if !ok {
				break
			}
			seen[r.ID]++
			if r.Kind == isa.KindOrderLight {
				mergedAt[r.ID] = len(drained)
			}
			drained = append(drained, r.ID)
		}
		if c.Len() != 0 {
			return false // something got stuck
		}
		// Conservation: each id exactly once.
		for _, p := range pushes {
			if seen[p.id] != 1 {
				return false
			}
		}
		for olID := range olPending {
			if seen[olID] != 1 {
				return false
			}
		}
		// Barrier: a request pushed after OL x on its path emerges after
		// the merged x.
		pos := map[uint64]int{}
		for i, idv := range drained {
			pos[idv] = i
		}
		for _, p := range pushes {
			for olID := range p.afterOL {
				if pos[p.id] < mergedAt[olID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestReplicate(t *testing.T) {
	r := mkOL(1, 0)
	r2 := Replicate(r, 3)
	if r2.Copies != 3 || r.Copies != 0 {
		t.Fatal("Replicate must return a stamped copy without mutating the original")
	}
}
