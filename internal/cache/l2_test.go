package cache

import (
	"testing"

	"orderlight/internal/config"
	"orderlight/internal/dram"
	"orderlight/internal/isa"
)

func testGeom() dram.Geometry {
	c := config.Default()
	return dram.NewGeometry(c.Memory.Channels, c.Memory.BanksPerChannel,
		c.Memory.RowBufferBytes, c.Memory.BusWidthBytes,
		c.Memory.GroupsPerChannel, c.PIM.BMF)
}

func pimReq(id uint64, bank int) isa.Request {
	return isa.Request{ID: id, Kind: isa.KindPIMLoad, Bank: uint8(bank), Group: uint8(testGeom().GroupOf(bank))}
}

func olPkt(id uint64, group int) isa.Request {
	return isa.Request{
		ID: id, Kind: isa.KindOrderLight, Group: uint8(group),
		OL: isa.OLPacket{PktID: isa.PktIDOrderLight, Group: uint8(group)},
	}
}

func TestSlicePIMBypassPreservesSubPathOrder(t *testing.T) {
	s := NewSlice(0, testGeom(), 2, 0)
	// Bank 0 and 2 share sub-path 0; bank 1 goes to sub-path 1.
	s.Accept(pimReq(1, 0))
	s.Accept(pimReq(2, 2))
	s.Accept(pimReq(3, 1))
	var got []uint64
	for {
		r, ok := s.Pop()
		if !ok {
			break
		}
		got = append(got, r.ID)
	}
	if len(got) != 3 {
		t.Fatalf("drained %d requests, want 3", len(got))
	}
	// Same-path order must hold: 1 before 2.
	pos := map[uint64]int{}
	for i, id := range got {
		pos[id] = i
	}
	if pos[1] > pos[2] {
		t.Fatalf("same-sub-path order violated: %v", got)
	}
}

func TestSliceOLCopiesAcrossSubPartitions(t *testing.T) {
	s := NewSlice(0, testGeom(), 2, 0)
	// Group 0's four banks (0-3) span both sub-partitions, so the packet
	// is copied to both and younger requests cannot overtake it.
	s.Accept(pimReq(1, 0)) // path 0
	s.Accept(olPkt(2, 0))  // copies on paths 0 and 1
	s.Accept(pimReq(3, 1)) // path 1, behind the copy

	r, ok := s.Pop()
	if !ok || r.ID != 1 {
		t.Fatalf("first pop = %v, want request 1", r)
	}
	r, ok = s.Pop()
	if !ok || r.Kind != isa.KindOrderLight {
		t.Fatalf("second pop = %v, want merged OrderLight", r)
	}
	r, ok = s.Pop()
	if !ok || r.ID != 3 {
		t.Fatalf("third pop = %v, want request 3", r)
	}
}

func TestSliceBackpressure(t *testing.T) {
	s := NewSlice(0, testGeom(), 2, 0)
	for i := 0; i < 64; i++ {
		if !s.CanAccept(pimReq(uint64(i), 0)) {
			t.Fatalf("rejected request %d with capacity 64", i)
		}
		s.Accept(pimReq(uint64(i), 0))
	}
	if s.CanAccept(pimReq(99, 0)) {
		t.Fatal("full sub-path still accepting")
	}
	if !s.CanAccept(pimReq(100, 1)) {
		t.Fatal("other sub-path should still accept")
	}
	if s.CanAccept(olPkt(101, 0)) {
		t.Fatal("OL accepted with one relevant sub-path full")
	}
}

func TestSliceHostHitServicedLocally(t *testing.T) {
	s := NewSlice(0, testGeom(), 2, 128)
	var hits []uint64
	s.OnHostHit = func(r isa.Request) { hits = append(hits, r.ID) }

	miss := isa.Request{ID: 1, Kind: isa.KindHostLoad, Addr: 0x40, Bank: 0}
	s.Accept(miss) // cold miss: forwards
	if s.Misses != 1 || s.Pending() != 1 {
		t.Fatalf("misses=%d pending=%d, want 1/1", s.Misses, s.Pending())
	}
	hit := isa.Request{ID: 2, Kind: isa.KindHostLoad, Addr: 0x40, Bank: 0}
	s.Accept(hit)
	if s.Hits != 1 || len(hits) != 1 || hits[0] != 2 {
		t.Fatalf("hit not serviced locally: hits=%d callback=%v", s.Hits, hits)
	}
	if s.Pending() != 1 {
		t.Fatal("hit request leaked into the DRAM path")
	}
}

func TestSlicePIMNeverTouchesTags(t *testing.T) {
	s := NewSlice(0, testGeom(), 2, 128)
	r := pimReq(1, 0)
	r.Addr = 0x80
	s.Accept(r)
	host := isa.Request{ID: 2, Kind: isa.KindHostLoad, Addr: 0x80, Bank: 0}
	s.Accept(host)
	if s.Hits != 0 {
		t.Fatal("PIM request allocated a cache line (must bypass)")
	}
}

func TestTagArrayLRU(t *testing.T) {
	ta := NewTagArray(4, 2) // 2 sets x 2 ways
	// Addresses 0, 2, 4 map to set 0 (mod 2).
	if ta.Access(0) {
		t.Fatal("cold access hit")
	}
	ta.Access(2)
	if !ta.Access(0) {
		t.Fatal("0 should still be resident")
	}
	ta.Access(4) // evicts LRU = 2
	if ta.Contains(2) {
		t.Fatal("LRU line not evicted")
	}
	if !ta.Contains(0) || !ta.Contains(4) {
		t.Fatal("MRU lines evicted incorrectly")
	}
}
