package dram

import "orderlight/internal/isa"

// Memory is the slot-granular view PIM units execute against. *Store
// implements it directly; *Overlay implements it as a copy-on-write
// layer so per-channel shards of the parallel engine can execute
// against a shared base store without write races.
type Memory interface {
	// Lanes returns the number of int32 lanes per slot.
	Lanes() int
	// Read returns the payload of a slot; untouched slots read as zero.
	// The returned slice must not be mutated.
	Read(a isa.Addr) []int32
	// Write replaces the payload of a slot. The value slice is copied.
	Write(a isa.Addr, v []int32)
}

var (
	_ Memory = (*Store)(nil)
	_ Memory = (*Overlay)(nil)
)

// Overlay is a copy-on-write view over a base Store: reads fall through
// to the base until the slot is written, writes land in a private delta
// map. The parallel engine gives each channel its own overlay while the
// base is shared read-only; because channels write disjoint address
// sets, folding every overlay back into the base reproduces exactly the
// image sequential execution would have produced.
//
// An Overlay is not safe for concurrent use; concurrent *readers* of the
// shared base are safe as long as no goroutine writes the base.
type Overlay struct {
	base  *Store
	delta map[isa.Addr][]int32
}

// NewOverlay creates an empty overlay over base.
func NewOverlay(base *Store) *Overlay {
	return &Overlay{base: base, delta: make(map[isa.Addr][]int32)}
}

// Lanes returns the number of int32 lanes per slot.
func (o *Overlay) Lanes() int { return o.base.Lanes() }

// Read returns the slot's payload: the overlay's copy when the slot has
// been written through this overlay, otherwise the base's view.
func (o *Overlay) Read(a isa.Addr) []int32 {
	if v, ok := o.delta[a]; ok {
		return v
	}
	return o.base.Read(a)
}

// Write replaces the payload of a slot in the overlay's delta.
func (o *Overlay) Write(a isa.Addr, v []int32) {
	if len(v) != o.base.lanes {
		panic("dram: overlay write of wrong lane count")
	}
	dst, ok := o.delta[a]
	if !ok {
		dst = make([]int32, o.base.lanes)
		o.delta[a] = dst
	}
	copy(dst, v)
}

// Dirty returns the number of slots written through the overlay since
// the last Fold.
func (o *Overlay) Dirty() int { return len(o.delta) }

// Fold writes every dirty slot back into the base store and clears the
// delta. Overlays over the same base must cover disjoint address sets
// for the result to be well defined; the parallel engine guarantees
// this by sharding on the channel bits of the address.
func (o *Overlay) Fold() {
	for a, v := range o.delta {
		o.base.Write(a, v)
		delete(o.delta, a)
	}
}
