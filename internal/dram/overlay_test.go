package dram

import (
	"testing"

	"orderlight/internal/isa"
)

func TestOverlayReadThrough(t *testing.T) {
	base := NewStore(4)
	base.Write(isa.Addr(8), []int32{1, 2, 3, 4})
	o := NewOverlay(base)

	if o.Lanes() != 4 {
		t.Fatalf("Lanes() = %d, want 4", o.Lanes())
	}
	// Clean slots read through to the base; untouched slots read as zero.
	if got := o.Read(isa.Addr(8)); got[0] != 1 || got[3] != 4 {
		t.Fatalf("read-through = %v, want base payload", got)
	}
	if got := o.Read(isa.Addr(16)); got[0] != 0 {
		t.Fatalf("untouched slot reads %v, want zeros", got)
	}

	// A write lands in the delta, not the base.
	o.Write(isa.Addr(8), []int32{9, 9, 9, 9})
	if got := o.Read(isa.Addr(8)); got[0] != 9 {
		t.Fatalf("overlay read after write = %v, want delta payload", got)
	}
	if got := base.Read(isa.Addr(8)); got[0] != 1 {
		t.Fatalf("base mutated by overlay write: %v", got)
	}
	if o.Dirty() != 1 {
		t.Fatalf("Dirty() = %d, want 1", o.Dirty())
	}
}

func TestOverlayUpdateAndFold(t *testing.T) {
	base := NewStore(2)
	base.Write(isa.Addr(0), []int32{10, 20})
	o := NewOverlay(base)

	// A read-modify-write on a clean slot reads through to the base.
	update := func(f func(int32) int32) {
		cur := o.Read(isa.Addr(0))
		o.Write(isa.Addr(0), []int32{f(cur[0]), f(cur[1])})
	}
	update(func(old int32) int32 { return old + 1 })
	// One on a dirty slot compounds on the delta.
	update(func(old int32) int32 { return old * 2 })
	o.Write(isa.Addr(8), []int32{7, 7})

	if got := o.Read(isa.Addr(0)); got[0] != 22 || got[1] != 42 {
		t.Fatalf("compound update = %v, want [22 42]", got)
	}
	if got := base.Read(isa.Addr(0)); got[0] != 10 {
		t.Fatalf("base mutated before Fold: %v", got)
	}

	o.Fold()
	if o.Dirty() != 0 {
		t.Fatalf("Dirty() after Fold = %d, want 0", o.Dirty())
	}
	if got := base.Read(isa.Addr(0)); got[0] != 22 || got[1] != 42 {
		t.Fatalf("base after Fold = %v, want folded payload", got)
	}
	if got := base.Read(isa.Addr(8)); got[0] != 7 {
		t.Fatalf("base after Fold = %v, want folded payload", got)
	}
}

func TestOverlayDisjointFoldEquivalence(t *testing.T) {
	// Two overlays writing disjoint address sets fold back into exactly
	// the image direct sequential writes would have produced — the
	// property the parallel engine's per-channel sharding rests on.
	direct := NewStore(1)
	base := NewStore(1)
	a, b := NewOverlay(base), NewOverlay(base)
	for i := 0; i < 64; i++ {
		addr := isa.Addr(i * 4)
		direct.Write(addr, []int32{int32(i)})
		if i%2 == 0 {
			a.Write(addr, []int32{int32(i)})
		} else {
			b.Write(addr, []int32{int32(i)})
		}
	}
	a.Fold()
	b.Fold()
	if !base.Equal(direct) {
		t.Fatalf("folded overlays diverge from direct writes at %v", base.Diff(direct, 4))
	}
}

func TestOverlayRejectsWrongLaneCount(t *testing.T) {
	o := NewOverlay(NewStore(4))
	defer func() {
		if recover() == nil {
			t.Fatal("overlay write with wrong lane count did not panic")
		}
	}()
	o.Write(isa.Addr(0), []int32{1})
}
