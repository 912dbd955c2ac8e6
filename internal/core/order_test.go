package core

import (
	"testing"
	"testing/quick"

	"orderlight/internal/sim"
)

func TestTrackerUnconstrainedIssuesFreely(t *testing.T) {
	tr := NewTracker(4)
	e1 := tr.Arrive(0)
	e2 := tr.Arrive(0)
	if e1 != e2 {
		t.Fatalf("requests without an OrderLight between them got epochs %d, %d", e1, e2)
	}
	if !tr.CanIssue(0, e1) || !tr.CanIssue(0, e2) {
		t.Fatal("unconstrained requests not issueable")
	}
	// Out-of-order issue within an epoch is allowed (FR-FCFS freedom).
	tr.Issued(0, e2)
	tr.Issued(0, e1)
	if tr.Outstanding(0) != 0 {
		t.Fatalf("outstanding = %d, want 0", tr.Outstanding(0))
	}
}

func TestTrackerOrderLightBlocksYoungerEpoch(t *testing.T) {
	tr := NewTracker(2)
	old := tr.Arrive(1)
	if err := tr.OrderLight(1, 0); err != nil {
		t.Fatal(err)
	}
	young := tr.Arrive(1)
	if young == old {
		t.Fatal("OrderLight did not open a new epoch")
	}
	if !tr.Blocked(1) {
		t.Fatal("group not flagged after OrderLight with outstanding older request")
	}
	if tr.CanIssue(1, young) {
		t.Fatal("younger request issueable before older epoch drained")
	}
	if !tr.CanIssue(1, old) {
		t.Fatal("older request must stay issueable")
	}
	tr.Issued(1, old)
	if tr.Blocked(1) {
		t.Fatal("group still flagged after older epoch drained")
	}
	if !tr.CanIssue(1, young) {
		t.Fatal("younger request not released after drain")
	}
	tr.Issued(1, young)
}

func TestTrackerGroupsAreIndependent(t *testing.T) {
	// §5.3.1: the memory-group ID exists so that ordering in one group
	// never constrains another group's requests.
	tr := NewTracker(2)
	e0 := tr.Arrive(0)
	if err := tr.OrderLight(0, 0); err != nil {
		t.Fatal(err)
	}
	tr.Arrive(0) // younger, blocked
	other := tr.Arrive(1)
	if !tr.CanIssue(1, other) {
		t.Fatal("request in unrelated group blocked by another group's OrderLight")
	}
	if !tr.CanIssue(0, e0) {
		t.Fatal("pre-OrderLight request blocked")
	}
}

func TestTrackerMultipleBufferedPackets(t *testing.T) {
	tr := NewTracker(1)
	a := tr.Arrive(0)
	tr.OrderLight(0, 0)
	b := tr.Arrive(0)
	tr.OrderLight(0, 1)
	c := tr.Arrive(0)
	if tr.PendingEpochs(0) != 3 {
		t.Fatalf("PendingEpochs = %d, want 3", tr.PendingEpochs(0))
	}
	if tr.CanIssue(0, b) || tr.CanIssue(0, c) {
		t.Fatal("younger epochs issueable too early")
	}
	tr.Issued(0, a)
	if !tr.CanIssue(0, b) || tr.CanIssue(0, c) {
		t.Fatal("epoch b should be eligible, c not")
	}
	tr.Issued(0, b)
	if !tr.CanIssue(0, c) {
		t.Fatal("epoch c not released")
	}
}

func TestTrackerEmptyEpochRetiresImmediately(t *testing.T) {
	// An OrderLight packet with no outstanding older requests must not
	// block anything (zero-cost packet).
	tr := NewTracker(1)
	tr.OrderLight(0, 0)
	e := tr.Arrive(0)
	if !tr.CanIssue(0, e) {
		t.Fatal("request blocked by OrderLight over an empty epoch")
	}
}

func TestTrackerPacketNumberSanityCheck(t *testing.T) {
	tr := NewTracker(1)
	if err := tr.OrderLight(0, 5); err != nil {
		t.Fatalf("first packet rejected: %v", err)
	}
	if err := tr.OrderLight(0, 6); err != nil {
		t.Fatalf("increasing packet rejected: %v", err)
	}
	if err := tr.OrderLight(0, 6); err == nil {
		t.Fatal("duplicate packet number not flagged")
	}
	if err := tr.OrderLight(0, 4); err == nil {
		t.Fatal("decreasing packet number not flagged")
	}
}

func TestTrackerIssuedPanicsOnBadEpoch(t *testing.T) {
	tr := NewTracker(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Issued on unknown epoch did not panic")
		}
	}()
	tr.Issued(0, 7)
}

// TestTrackerOrderingInvariantProperty drives the tracker with a random
// mix of arrivals, OrderLight packets and issue attempts and checks the
// fundamental invariant: no request is ever issued before a request of
// an older epoch in the same group.
func TestTrackerOrderingInvariantProperty(t *testing.T) {
	type pending struct {
		group int
		epoch Epoch
		seq   int
	}
	f := func(ops []uint16, seed uint64) bool {
		const groups = 3
		tr := NewTracker(groups)
		rng := sim.NewRand(seed)
		var queue []pending
		lastIssuedSeq := make(map[int]int) // group -> next expected "barrier floor"
		maxIssuedPerEpoch := map[[2]int]bool{}
		seq := 0
		pkt := make([]uint32, groups)
		for _, op := range ops {
			g := int(op) % groups
			switch (op / 8) % 3 {
			case 0: // arrival
				e := tr.Arrive(g)
				queue = append(queue, pending{group: g, epoch: e, seq: seq})
				seq++
			case 1: // OrderLight
				tr.OrderLight(g, pkt[g])
				pkt[g]++
			case 2: // try to issue a random pending request
				if len(queue) == 0 {
					continue
				}
				i := rng.Intn(len(queue))
				p := queue[i]
				if !tr.CanIssue(p.group, p.epoch) {
					continue
				}
				// Invariant: every older-epoch request in this group must
				// already be issued (i.e. not in the queue).
				for _, q := range queue {
					if q.group == p.group && q.epoch < p.epoch {
						return false
					}
				}
				tr.Issued(p.group, p.epoch)
				maxIssuedPerEpoch[[2]int{p.group, int(p.epoch)}] = true
				queue = append(queue[:i], queue[i+1:]...)
				_ = lastIssuedSeq
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTrackerEligibleCountProperty checks the O(1) eligible count
// against a recount of the outstanding requests CanIssue allows, after
// every arrival, packet and issue, including issues out of a younger
// epoch (what a fault plan's ordering bypass does) and a Reset midway.
func TestTrackerEligibleCountProperty(t *testing.T) {
	type pending struct {
		group int
		epoch Epoch
	}
	f := func(ops []uint16, seed uint64) bool {
		const groups = 3
		tr := NewTracker(groups)
		rng := sim.NewRand(seed)
		var queue []pending
		var pkt uint32
		for k, op := range ops {
			g := int(op) % groups
			switch (op / 8) % 4 {
			case 0, 3:
				queue = append(queue, pending{g, tr.Arrive(g)})
			case 1:
				tr.OrderLight(g, pkt)
				pkt++
			case 2:
				if len(queue) == 0 {
					continue
				}
				i := rng.Intn(len(queue))
				if p := queue[i]; tr.CanIssue(p.group, p.epoch) || op%5 == 0 {
					tr.Issued(p.group, p.epoch)
					queue = append(queue[:i], queue[i+1:]...)
				}
			}
			if k == len(ops)/2 && op%7 == 0 {
				tr.Reset(groups)
				queue = queue[:0]
			}
			n := 0
			for _, p := range queue {
				if tr.CanIssue(p.group, p.epoch) {
					n++
				}
			}
			if tr.Eligible() != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorCounter(t *testing.T) {
	c := NewCollectorCounter(2, 2)
	if !c.Zero(0, 0) {
		t.Fatal("fresh counter not zero")
	}
	c.Alloc(0, 0)
	c.Alloc(0, 0)
	c.Alloc(1, 1)
	if c.Zero(0, 0) || c.Count(0, 0) != 2 {
		t.Fatalf("count(0,0) = %d, want 2", c.Count(0, 0))
	}
	if c.Zero(1, 1) {
		t.Fatal("count(1,1) should be nonzero")
	}
	if !c.Zero(0, 1) || !c.Zero(1, 0) {
		t.Fatal("untouched counters should be zero")
	}
	c.Release(0, 0)
	c.Release(0, 0)
	if !c.Zero(0, 0) {
		t.Fatal("counter not zero after balanced releases")
	}
}

func TestCollectorCounterBudgetExactWhenTagged(t *testing.T) {
	c := NewCollectorCounterBudget(2, 2, 1)
	c.Alloc(0, 0) // grabs the only counter
	if c.Zero(0, 0) {
		t.Fatal("watched pair with outstanding request reported zero")
	}
	c.Release(0, 0) // counter freed on drain
	if !c.Zero(0, 0) {
		t.Fatal("drained watched pair not zero")
	}
	// The freed counter is reusable by another pair.
	c.Alloc(1, 1)
	if c.Zero(1, 1) {
		t.Fatal("second pair did not reuse the freed counter")
	}
	c.Release(1, 1)
}

func TestCollectorCounterBudgetFallbackIsConservative(t *testing.T) {
	c := NewCollectorCounterBudget(2, 2, 1)
	c.Alloc(0, 0) // takes the counter
	c.Alloc(1, 1) // unwatched: folded into the conservative total
	// Pair (1,1) is unwatched and has an outstanding request: its
	// OrderLight may only inject when the whole collector is empty.
	if c.Zero(1, 1) {
		t.Fatal("unwatched nonzero pair reported zero")
	}
	c.Release(1, 1)
	// Now (1,1) has nothing outstanding at all: safe even unwatched.
	if !c.Zero(1, 1) {
		t.Fatal("fully drained pair reported nonzero")
	}
	// (0,0) still watched and nonzero.
	if c.Zero(0, 0) {
		t.Fatal("watched nonzero pair reported zero")
	}
	c.Release(0, 0)
	if !c.Zero(0, 0) || !c.Zero(1, 1) {
		t.Fatal("empty collector not zero everywhere")
	}
}

func TestCollectorCounterBudgetFallbackWaitsForTotal(t *testing.T) {
	c := NewCollectorCounterBudget(1, 4, 1)
	c.Alloc(0, 0) // watched
	c.Alloc(0, 1) // unwatched
	c.Alloc(0, 1) // unwatched again
	if c.Zero(0, 1) {
		t.Fatal("unwatched pair zero with outstanding requests")
	}
	c.Release(0, 1)
	c.Release(0, 1)
	// Its own count drained: zero regardless of the other pair.
	if !c.Zero(0, 1) {
		t.Fatal("pair with drained count should read zero")
	}
	c.Release(0, 0)
}

func TestCollectorCounterUnderflowPanics(t *testing.T) {
	c := NewCollectorCounter(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Release below zero did not panic")
		}
	}()
	c.Release(0, 0)
}

func TestCollectorCounterRangePanics(t *testing.T) {
	c := NewCollectorCounter(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range index did not panic")
		}
	}()
	c.Alloc(2, 0)
}

func TestFenceTracker(t *testing.T) {
	f := NewFenceTracker(2)
	if !f.Drained(0) {
		t.Fatal("fresh warp not drained")
	}
	f.Issued(0)
	f.Issued(0)
	f.Issued(1)
	if f.Drained(0) || f.Outstanding(0) != 2 {
		t.Fatalf("outstanding(0) = %d, want 2", f.Outstanding(0))
	}
	f.Acked(0)
	if f.Drained(0) {
		t.Fatal("drained with one request still outstanding")
	}
	f.Acked(0)
	if !f.Drained(0) {
		t.Fatal("not drained after all acks")
	}
	if f.Drained(1) {
		t.Fatal("warp 1 should still be outstanding")
	}
}

func TestFenceTrackerUnderflowPanics(t *testing.T) {
	f := NewFenceTracker(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Acked below zero did not panic")
		}
	}()
	f.Acked(0)
}
