package dram

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sync/atomic"

	"orderlight/internal/isa"
)

// The store is paged: slot address a lives in page a>>pageShift at
// offset a&pageMask. The page size is fixed; 64 slots make the written
// bitmap one machine word.
const (
	pageShift = 6
	pageSlots = 1 << pageShift
	pageMask  = pageSlots - 1
)

// page holds pageSlots consecutive slots in one contiguous lane slab,
// plus a bitmap of the slots ever written. Unwritten slots are zero.
// The slab may be shared with clones: refs counts the page tables that
// point at it, and a store writes a slab in place only while it is the
// one holder.
type page struct {
	key     isa.Addr // page number: the slot address >> pageShift
	data    []int32  // pageSlots*lanes lanes, slot i at [i*lanes, (i+1)*lanes)
	refs    *int32   // holders of data; the word after data in the same allocation
	written uint64
}

// newSlab allocates a zeroed slab of n lanes held by one page table.
// Its holder count lives in one extra word of the same allocation, so
// a page costs one allocation.
func newSlab(n int) ([]int32, *int32) {
	buf := make([]int32, n+1)
	buf[n] = 1
	return buf[:n:n], &buf[n]
}

// shared reports whether another page table also holds p's slab.
func (p *page) shared() bool { return atomic.LoadInt32(p.refs) > 1 }

// own gives p a private copy of its slab if the slab is shared. The old
// slab is released only after it has been copied, so a holder that
// then finds itself alone can write it in place.
func (p *page) own() {
	if !p.shared() {
		return
	}
	data, refs := newSlab(len(p.data))
	copy(data, p.data)
	atomic.AddInt32(p.refs, -1)
	p.data, p.refs = data, refs
}

// pageIndex maps page numbers to positions in a page table. Clones
// share it until one of them adds a page.
type pageIndex struct {
	refs int32 // stores that use this index; atomic
	pos  map[isa.Addr]int
}

// Store is the functional backing memory: lazily allocated fixed-size
// pages of slots, each slot carrying int32 payload lanes. PIM units and
// the reference executor read and write through it, so the bytes a run
// produces are real and an ordering violation shows up as a wrong
// answer.
//
// Clones are copy-on-write: they share page slabs and the page index
// until one side writes. Concurrent Read and Clone calls on a store
// nobody writes are safe; the runner's kernel cache relies on that.
type Store struct {
	lanes   int
	index   *pageIndex // page number -> position in pages
	pages   []page     // in first-touch order
	touched int        // set bits across every page's written bitmap
}

// NewStore creates an empty store whose slots carry the given number of
// int32 lanes (8 * BMF).
func NewStore(lanes int) *Store {
	if lanes <= 0 {
		panic("dram: store needs at least one lane per slot")
	}
	return &Store{lanes: lanes, index: &pageIndex{refs: 1, pos: make(map[isa.Addr]int)}}
}

// Lanes returns the number of int32 lanes per slot.
func (s *Store) Lanes() int { return s.lanes }

// page returns page number key, or nil when no slot in it was written.
// The pointer is valid until the store next gains a page.
func (s *Store) page(key isa.Addr) *page {
	if i, ok := s.index.pos[key]; ok {
		return &s.pages[i]
	}
	return nil
}

// lanesOf returns slot off's lanes within a page slab, capped so an
// append cannot spill into the next slot.
func (s *Store) lanesOf(p *page, off int) []int32 {
	lo, hi := off*s.lanes, (off+1)*s.lanes
	return p.data[lo:hi:hi]
}

// Read returns the payload of a slot. A written slot comes back as a
// view into the store, without allocating; it must not be mutated (use
// Write). A never-written slot reads as zero in a fresh buffer.
func (s *Store) Read(a isa.Addr) []int32 {
	if p, off := s.page(a>>pageShift), int(a&pageMask); p.isWritten(off) {
		return s.lanesOf(p, off)
	}
	return make([]int32, s.lanes)
}

// Write replaces the payload of a slot. The value slice is copied; only
// the first write into a page allocates: a page the store lacks, or one
// whose slab a clone still shares.
func (s *Store) Write(a isa.Addr, v []int32) {
	if len(v) != s.lanes {
		panic(fmt.Sprintf("dram: write of %d lanes to %d-lane store", len(v), s.lanes))
	}
	copy(s.slot(a), v)
}

// slot returns the writable lanes of a slot, creating its page on first
// touch, unsharing a shared slab and marking the slot written.
func (s *Store) slot(a isa.Addr) []int32 {
	key, off := a>>pageShift, int(a&pageMask)
	p := s.page(key)
	if p == nil {
		p = s.addPage(key)
	} else {
		p.own()
	}
	if bit := uint64(1) << off; p.written&bit == 0 {
		p.written |= bit
		s.touched++
	}
	return s.lanesOf(p, off)
}

// addPage appends an empty page, first taking a private copy of the
// index if a clone shares it.
func (s *Store) addPage(key isa.Addr) *page {
	if atomic.LoadInt32(&s.index.refs) > 1 {
		idx := &pageIndex{refs: 1, pos: maps.Clone(s.index.pos)}
		atomic.AddInt32(&s.index.refs, -1)
		s.index = idx
	}
	s.index.pos[key] = len(s.pages)
	data, refs := newSlab(pageSlots * s.lanes)
	s.pages = append(s.pages, page{key: key, data: data, refs: refs})
	return &s.pages[len(s.pages)-1]
}

// Touched returns the number of slots ever written.
func (s *Store) Touched() int { return s.touched }

// Each calls fn on every written slot, page by page in first-touch
// order. v aliases the store and is valid only during the call.
func (s *Store) Each(fn func(a isa.Addr, v []int32)) {
	for i := range s.pages {
		p := &s.pages[i]
		for w := p.written; w != 0; w &= w - 1 {
			off := bits.TrailingZeros64(w)
			fn(p.key<<pageShift|isa.Addr(off), s.lanesOf(p, off))
		}
	}
}

// Clone returns a copy-on-write copy of the store (used to snapshot
// initial state for the reference executor). See CloneInto.
func (s *Store) Clone() *Store { return s.CloneInto(new(Store)) }

// CloneInto makes dst a copy-on-write copy of s and returns it, reusing
// dst's page table; whatever dst held before is released. The copy
// shares every page slab and the page index with s, and the first
// write to a shared page on either side copies that page. s is only
// read, apart from atomic holder counts, so concurrent clones of one
// store are safe. The cost is one pass over the page table, and no
// allocation once dst's table has grown to s's size.
func (s *Store) CloneInto(dst *Store) *Store {
	if dst == s {
		return s
	}
	dst.Release()
	atomic.AddInt32(&s.index.refs, 1)
	for i := range s.pages {
		atomic.AddInt32(s.pages[i].refs, 1)
	}
	dst.lanes, dst.index, dst.touched = s.lanes, s.index, s.touched
	dst.pages = append(dst.pages, s.pages...)
	return dst
}

// Release empties the store and drops its hold on every slab and on
// the index, so stores still sharing them may write in place. The page
// table keeps its capacity for a later CloneInto.
func (s *Store) Release() {
	for i := range s.pages {
		atomic.AddInt32(s.pages[i].refs, -1)
	}
	if s.index != nil {
		atomic.AddInt32(&s.index.refs, -1)
	}
	clear(s.pages)
	s.pages, s.index, s.touched = s.pages[:0], nil, 0
}

// zeros reports whether every lane of v is zero.
func zeros(v []int32) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether two stores hold identical contents, treating
// missing slots as zero-filled. Pages whose slab the two stores share
// are equal without a look.
func (s *Store) Equal(o *Store) bool {
	if s.lanes != o.lanes {
		return false
	}
	for i := range s.pages {
		p := &s.pages[i]
		if op := o.page(p.key); op != nil {
			if p.refs != op.refs && !slices.Equal(p.data, op.data) {
				return false
			}
		} else if !zeros(p.data) {
			return false
		}
	}
	for i := range o.pages {
		if op := &o.pages[i]; s.page(op.key) == nil && !zeros(op.data) {
			return false
		}
	}
	return true
}

// Diff returns up to limit addresses whose contents differ between the two
// stores, in ascending order, for diagnostics. Missing slots count as
// zero; stores of different lane widths differ at every slot of every
// page either holds.
func (s *Store) Diff(o *Store, limit int) []isa.Addr {
	keys := make([]isa.Addr, 0, len(s.pages)+len(o.pages))
	for i := range s.pages {
		keys = append(keys, s.pages[i].key)
	}
	for i := range o.pages {
		if key := o.pages[i].key; s.page(key) == nil {
			keys = append(keys, key)
		}
	}
	slices.Sort(keys)
	var out []isa.Addr
	zero := make([]int32, max(s.lanes, o.lanes))
	for _, key := range keys {
		if len(out) >= limit {
			break
		}
		p, op := s.page(key), o.page(key)
		if p != nil && op != nil && p.refs == op.refs {
			continue // one shared slab
		}
		for off := 0; off < pageSlots && len(out) < limit; off++ {
			if !slices.Equal(s.view(p, off, zero), o.view(op, off, zero)) {
				out = append(out, key<<pageShift|isa.Addr(off))
			}
		}
	}
	return out
}

// isWritten reports whether slot off of a possibly absent page was ever
// written.
func (p *page) isWritten(off int) bool {
	return p != nil && p.written&(1<<off) != 0
}

// view returns slot off of a possibly absent page, or s's lane width of
// zero when the page is absent.
func (s *Store) view(p *page, off int, zero []int32) []int32 {
	if p == nil {
		return zero[:s.lanes]
	}
	return s.lanesOf(p, off)
}
