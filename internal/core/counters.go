package core

import (
	"fmt"

	"orderlight/internal/sim"
)

// CollectorCounter implements the operand-collector augmentation of
// §5.3.1: one counter per (memory-channel, memory-group) tracking PIM
// requests currently resident in the operand collector. An OrderLight
// instruction may inject its packet only when the counter for its
// channel and group reads zero — guaranteeing the packet enters the
// memory pipe behind every older PIM request, without the full pipeline
// drain a fence performs.
// A CollectorCounter may carry a hardware budget (§5.3.1: "to reduce
// the number of counters, an implementation may limit the number of
// channels/memory-groups that can be controlled per SM"): only budget
// (channel, group) pairs are watched precisely at a time; a counter is
// reclaimed when its pair drains, and an OrderLight instruction for an
// unwatched pair falls back to the conservative condition that the
// whole collector is empty.
type CollectorCounter struct {
	channels int
	groups   int
	counts   []int

	budget int          // 0 = one counter per pair (unlimited)
	tagged map[int]bool // pair indices currently holding a counter
	total  int          // outstanding across all pairs
}

// NewCollectorCounter creates counters for channels x groups, one per
// pair (no hardware budget).
func NewCollectorCounter(channels, groups int) *CollectorCounter {
	return NewCollectorCounterBudget(channels, groups, 0)
}

// NewCollectorCounterBudget creates counters with at most budget
// concurrently watched (channel, group) pairs; budget <= 0 means one
// counter per pair.
func NewCollectorCounterBudget(channels, groups, budget int) *CollectorCounter {
	c := new(CollectorCounter)
	c.Reset(channels, groups, budget)
	return c
}

// Reset zeroes every counter and gives the set a new shape and budget,
// keeping its buffers.
func (c *CollectorCounter) Reset(channels, groups, budget int) {
	c.channels, c.groups, c.budget, c.total = channels, groups, budget, 0
	c.counts = sim.Resize(c.counts, channels*groups)
	clear(c.counts)
	if c.tagged == nil {
		c.tagged = make(map[int]bool)
	}
	clear(c.tagged)
}

func (c *CollectorCounter) idx(ch, g int) int {
	if ch < 0 || ch >= c.channels || g < 0 || g >= c.groups {
		panic(fmt.Sprintf("core: collector counter index (%d,%d) out of range %dx%d", ch, g, c.channels, c.groups))
	}
	return ch*c.groups + g
}

// Alloc records a PIM request entering the operand collector. Under a
// budget, the pair grabs a free counter if one exists.
func (c *CollectorCounter) Alloc(ch, g int) {
	i := c.idx(ch, g)
	if c.budget > 0 && !c.tagged[i] && len(c.tagged) < c.budget {
		c.tagged[i] = true
	}
	c.counts[i]++
	c.total++
}

// Release records a PIM request leaving the operand collector (issued to
// the LDST queue). A watched pair that drains returns its counter to
// the free pool.
func (c *CollectorCounter) Release(ch, g int) {
	i := c.idx(ch, g)
	if c.counts[i] == 0 {
		panic(fmt.Sprintf("core: collector counter (%d,%d) released below zero", ch, g))
	}
	c.counts[i]--
	c.total--
	if c.budget > 0 && c.counts[i] == 0 {
		delete(c.tagged, i)
	}
}

// Zero reports whether an OrderLight packet for (ch, g) may inject: the
// pair's counter reads zero if the hardware watches it, otherwise the
// conservative whole-collector-empty condition applies.
func (c *CollectorCounter) Zero(ch, g int) bool {
	i := c.idx(ch, g)
	if c.budget <= 0 || c.tagged[i] {
		return c.counts[i] == 0
	}
	if c.counts[i] == 0 {
		return true // nothing outstanding for the pair at all
	}
	return c.total == 0
}

// Count returns the current counter value, for statistics.
func (c *CollectorCounter) Count(ch, g int) int { return c.counts[c.idx(ch, g)] }

// FenceTracker implements the baseline's core-centric bookkeeping
// (§4.3): each warp counts PIM requests it has issued into the memory
// pipe that have not yet been acknowledged as issued-to-DRAM. A fence
// instruction stalls its warp until the count reads zero. The large
// per-fence cost measured in Figure 5 is exactly the round trip this
// counter forces the core to wait for.
type FenceTracker struct {
	outstanding []int
}

// NewFenceTracker creates a tracker for nWarps warps.
func NewFenceTracker(nWarps int) *FenceTracker {
	f := new(FenceTracker)
	f.Reset(nWarps)
	return f
}

// Reset zeroes the tracker for nWarps warps, keeping its buffer.
func (f *FenceTracker) Reset(nWarps int) {
	f.outstanding = sim.Resize(f.outstanding, nWarps)
	clear(f.outstanding)
}

// Issued records a PIM request leaving warp w toward memory.
func (f *FenceTracker) Issued(w int) { f.outstanding[w]++ }

// Acked records the acknowledgment for one of warp w's requests.
func (f *FenceTracker) Acked(w int) {
	if f.outstanding[w] == 0 {
		panic(fmt.Sprintf("core: fence tracker for warp %d acked below zero", w))
	}
	f.outstanding[w]--
}

// Drained reports whether warp w has no outstanding PIM requests — the
// condition releasing a fence.
func (f *FenceTracker) Drained(w int) bool { return f.outstanding[w] == 0 }

// Outstanding returns warp w's in-flight count, for statistics.
func (f *FenceTracker) Outstanding(w int) int { return f.outstanding[w] }
