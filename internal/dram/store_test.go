package dram

import (
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"orderlight/internal/isa"
)

// refStore is the model the paged Store is checked against: one plain
// map entry per written slot, absent slots reading as zero.
type refStore struct {
	lanes int
	data  map[isa.Addr][]int32
}

func (r *refStore) read(a isa.Addr) []int32 {
	if v, ok := r.data[a]; ok {
		return v
	}
	return make([]int32, r.lanes)
}

func (r *refStore) write(a isa.Addr, v []int32) { r.data[a] = slices.Clone(v) }

func (r *refStore) clone() *refStore {
	c := &refStore{lanes: r.lanes, data: make(map[isa.Addr][]int32, len(r.data))}
	for a, v := range r.data {
		c.data[a] = slices.Clone(v)
	}
	return c
}

// diff lists, ascending, every address whose contents differ.
func (r *refStore) diff(o *refStore) []isa.Addr {
	var out []isa.Addr
	for a := range r.data {
		if !slices.Equal(r.read(a), o.read(a)) {
			out = append(out, a)
		}
	}
	for a := range o.data {
		if _, ok := r.data[a]; !ok && !slices.Equal(r.read(a), o.read(a)) {
			out = append(out, a)
		}
	}
	slices.Sort(out)
	return out
}

// modelAddr draws an address that exercises page structure: both edges
// of a page, the page interior, far-apart pages and a small dense
// region where pages fill up.
func modelAddr(rng *rand.Rand) isa.Addr {
	page := isa.Addr(rng.Intn(6))
	if rng.Intn(4) == 0 {
		page = isa.Addr(rng.Intn(1 << 20))
	}
	switch rng.Intn(4) {
	case 0:
		return page<<pageShift | 0
	case 1:
		return page<<pageShift | pageMask
	default:
		return page<<pageShift | isa.Addr(rng.Intn(pageSlots))
	}
}

func modelValue(rng *rand.Rand, lanes int) []int32 {
	v := make([]int32, lanes)
	if rng.Intn(4) == 0 {
		return v // explicit zero write
	}
	for i := range v {
		v[i] = int32(rng.Intn(5)) - 2
	}
	return v
}

// checkModel asserts that s and r hold the same image, slot by slot and
// through every whole-store observation.
func checkModel(t *testing.T, step int, s *Store, r *refStore, probes []isa.Addr) {
	t.Helper()
	if s.Touched() != len(r.data) {
		t.Fatalf("step %d: Touched = %d, model has %d written slots", step, s.Touched(), len(r.data))
	}
	for _, a := range probes {
		if got, want := s.Read(a), r.read(a); !slices.Equal(got, want) {
			t.Fatalf("step %d: Read(%d) = %v, model %v", step, a, got, want)
		}
	}
	written := map[isa.Addr][]int32{}
	s.Each(func(a isa.Addr, v []int32) { written[a] = slices.Clone(v) })
	if s.Lanes() != r.lanes || !maps.EqualFunc(written, r.data, slices.Equal[[]int32]) {
		t.Fatalf("step %d: Each does not visit the model's written slots", step)
	}
}

// TestStoreMatchesMapModel drives seeded random operation sequences
// through the paged Store and a plain per-slot map, for several lane
// widths, and requires every observation to agree.
func TestStoreMatchesMapModel(t *testing.T) {
	for _, lanes := range []int{1, 8, 24} {
		for seed := int64(1); seed <= 10; seed++ {
			rng := rand.New(rand.NewSource(seed*131 + int64(lanes)))
			s, r := NewStore(lanes), &refStore{lanes: lanes, data: map[isa.Addr][]int32{}}
			var probes []isa.Addr
			for step := 0; step < 200; step++ {
				a := modelAddr(rng)
				probes = append(probes, a, a^1)
				switch op := rng.Intn(10); {
				case op < 6:
					v := modelValue(rng, lanes)
					s.Write(a, v)
					r.write(a, v)
				case op < 8:
					// Clone, let the copies diverge by writing both
					// sides (often the same shared page), and compare
					// them.
					c, rc := s.Clone(), r.clone()
					for i := rng.Intn(6); i > 0; i-- {
						b, v := modelAddr(rng), modelValue(rng, lanes)
						if rng.Intn(2) == 0 {
							c.Write(b, v)
							rc.write(b, v)
						} else {
							s.Write(b, v)
							r.write(b, v)
						}
						probes = append(probes, b)
					}
					checkModel(t, step, c, rc, probes)
					checkModel(t, step, s, r, probes)
					// Both directions: the clone may hold pages s lacks.
					want := rc.diff(r)
					for _, x := range [][2]*Store{{c, s}, {s, c}} {
						if got := x[0].Diff(x[1], len(want)+1); !slices.Equal(got, want) {
							t.Fatalf("step %d: Diff = %v, model %v", step, got, want)
						}
						if got := x[0].Equal(x[1]); got != (len(want) == 0) {
							t.Fatalf("step %d: Equal = %v, model diff %v", step, got, want)
						}
						if len(want) > 1 {
							if got := x[0].Diff(x[1], 1); !slices.Equal(got, want[:1]) {
								t.Fatalf("step %d: capped Diff = %v, want %v", step, got, want[:1])
							}
						}
					}
				default:
					// Carry on with a clone in place of the original:
					// later steps write to the copy only.
					s = s.Clone()
				}
				checkModel(t, step, s, r, probes)
			}
		}
	}
}

func TestStoreReadIsolationInWrittenPage(t *testing.T) {
	// A never-written slot whose page exists still reads as a fresh
	// buffer, so mutating it cannot reach the page slab.
	s := NewStore(2)
	s.Write(pageSlots, []int32{1, 2})
	v := s.Read(pageSlots + 1)
	v[0] = 99
	if got := s.Read(pageSlots + 1); got[0] != 0 {
		t.Fatal("mutating a Read result of an unwritten slot leaked into its page")
	}
	if c := NewStore(2); !s.Equal(s.Clone()) || s.Equal(c) || s.Touched() != 1 {
		t.Fatal("store changed by mutating a Read result")
	}
}

func TestStoreLaneWidthsNeverEqual(t *testing.T) {
	a, b := NewStore(4), NewStore(8)
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("stores of different lane widths reported equal")
	}
	a.Write(64, make([]int32, 4))
	b.Write(3, make([]int32, 8))
	if got := a.Diff(b, 10); len(got) == 0 || got[0] != 0 {
		t.Fatalf("Diff across lane widths = %v, want every slot of both pages from 0 up", got)
	}
}

func TestStoreConcurrentCloneAndRead(t *testing.T) {
	// The runner's kernel cache clones one store from concurrent cells:
	// Clone and Read must only read. Run under -race.
	s := NewStore(4)
	for a := isa.Addr(0); a < 3*pageSlots; a += 3 {
		s.Write(a, []int32{int32(a), 1, 2, 3})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := s.Clone()
			c.Write(0, []int32{9, 9, 9, 9})
			for a := isa.Addr(0); a < 3*pageSlots; a++ {
				_ = s.Read(a)
			}
			if !c.Equal(c.Clone()) || c.Equal(s) {
				t.Error("concurrent clone diverged from its own copy or aliased the source")
			}
		}()
	}
	wg.Wait()
	if got := s.Read(0); got[0] != 0 {
		t.Fatalf("source store changed by a clone's write: %v", got)
	}
}

func TestStoreConcurrentCloneThenWrite(t *testing.T) {
	// Workers clone one master at once and write every page of their
	// copy, so shared slabs are copied and released concurrently. No
	// copy may see another's writes, and the master must stay intact.
	// Run under -race.
	master := NewStore(4)
	for a := isa.Addr(0); a < 4*pageSlots; a++ {
		master.Write(a, []int32{int32(a), 1, 2, 3})
	}
	want := master.Clone()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				c := master.Clone()
				mark := int32(100*g + round)
				for a := isa.Addr(0); a < 4*pageSlots; a += pageSlots / 2 {
					c.Write(a, []int32{mark, mark, mark, mark})
				}
				c.Write(9*pageSlots, []int32{mark, 0, 0, 0}) // a page the master lacks
				for a := isa.Addr(0); a < 4*pageSlots; a++ {
					got := c.Read(a)[0]
					if a%(pageSlots/2) == 0 && got != mark || a%(pageSlots/2) != 0 && got != int32(a) {
						t.Errorf("worker %d round %d: slot %d reads %d", g, round, a, got)
						return
					}
				}
				if c.Equal(master) {
					t.Error("written clone still equals the master")
				}
			}
		}()
	}
	wg.Wait()
	if !master.Equal(want) || master.Touched() != 4*pageSlots || !slices.Equal(master.Read(9*pageSlots), make([]int32, 4)) {
		t.Fatal("master changed by its clones' writes")
	}
}

func TestStoreCloneWritesBackInPlace(t *testing.T) {
	// Once one side has copied a shared page, the other side is its
	// slab's only holder and writes it in place.
	s := NewStore(8)
	v := make([]int32, 8)
	s.Write(5, v)
	c := s.Clone()
	s.Write(5, []int32{1, 2, 3, 4, 5, 6, 7, 8}) // copies the page
	if n := testing.AllocsPerRun(20, func() { c.Write(5, v) }); n != 0 {
		t.Fatalf("write to a page the other side already copied allocated %.1f/op, want 0", n)
	}
	if s.Equal(c) {
		t.Fatal("diverged stores compare equal")
	}
}

func TestStoreWriteAllocs(t *testing.T) {
	s := NewStore(8)
	v := []int32{1, 2, 3, 4, 5, 6, 7, 8}
	s.Write(100, v)
	if n := testing.AllocsPerRun(100, func() { s.Write(100, v) }); n != 0 {
		t.Fatalf("Write to a written slot allocated %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.Read(100) }); n != 0 {
		t.Fatalf("Read of a written slot allocated %.1f/op, want 0", n)
	}
}

func TestStoreCloneAllocs(t *testing.T) {
	// A clone shares every slab and the page index: it allocates its
	// header and its page table, whatever the page count. CloneInto a
	// store whose table is already large enough allocates nothing.
	for _, pages := range []int{1, 16, 2048} {
		s := NewStore(8)
		v := make([]int32, 8)
		for a := isa.Addr(0); a < isa.Addr(pages*pageSlots); a += pageSlots / 4 {
			s.Write(a, v)
		}
		if n := testing.AllocsPerRun(20, func() { _ = s.Clone() }); n > 2 {
			t.Fatalf("Clone of %d pages allocated %.0f/op, want at most 2", pages, n)
		}
		dst := s.Clone()
		if n := testing.AllocsPerRun(20, func() { _ = s.CloneInto(dst) }); n != 0 {
			t.Fatalf("CloneInto a grown store of %d pages allocated %.0f/op, want 0", pages, n)
		}
	}
}

// benchStore fills a store shaped like a mid-size kernel image: 64
// fully written pages of 8-lane slots.
func benchStore() *Store {
	s := NewStore(8)
	v := make([]int32, 8)
	for a := isa.Addr(0); a < 64*pageSlots; a++ {
		v[0] = int32(a)
		s.Write(a, v)
	}
	return s
}

// cloneSink keeps the benchmarked Clone from being optimized away.
var cloneSink *Store

func BenchmarkStoreClone(b *testing.B) {
	s := benchStore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cloneSink = s.Clone()
	}
}

func BenchmarkStoreEqual(b *testing.B) {
	s := benchStore()
	c := s.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Equal(c) {
			b.Fatal("clone not equal")
		}
	}
}

func BenchmarkStoreWrite(b *testing.B) {
	s := benchStore()
	v := make([]int32, 8)
	n := isa.Addr(s.Touched())
	b.ReportAllocs()
	b.ResetTimer()
	a := isa.Addr(0)
	for i := 0; i < b.N; i++ {
		s.Write(a, v)
		a = (a + 1) % n
	}
}
