package main

import "testing"

func mk(id, parent int, name string, start, end int64) span {
	return span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		mk(0, -1, "op", 0, 100),
		mk(1, 0, "build", 10, 30),
		mk(2, 0, "run", 40, 90),
		mk(3, 2, "inner", 50, 60),
	}
	got := selfTimes(spans)
	want := map[string]int64{"op": 100 - 20 - 50, "build": 20, "run": 50 - 10, "inner": 10}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
}

// Concurrent children overlap; the overlap must be subtracted once.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		mk(0, -1, "op", 0, 100),
		mk(1, 0, "a", 10, 50),
		mk(2, 0, "b", 30, 70), // overlaps a over [30, 50)
		mk(3, 0, "c", 80, 90),
	}
	if got := selfTimes(spans)["op"]; got != 100-60-10 {
		t.Errorf("self(op) = %d, want %d", got, 100-60-10)
	}
}

// A child running past its parent's end only covers the parent up to
// that end.
func TestSelfTimeClipsChildrenToParent(t *testing.T) {
	spans := []span{
		mk(0, -1, "op", 0, 100),
		mk(1, 0, "late", 90, 130),
		mk(2, 0, "early", -20, 10),
	}
	if got := selfTimes(spans)["op"]; got != 100-10-10 {
		t.Errorf("self(op) = %d, want %d", got, 80)
	}
}

func TestLayerTotalsCountsOps(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Op: 1, Name: "op", Start: 0, End: 10},
		{ID: 1, Parent: 0, Op: 1, Name: "replay", Start: 0, End: 2, Allocs: 5},
		{ID: 2, Parent: 0, Op: 1, Name: "replay", Start: 2, End: 4, Allocs: 5},
		{ID: 3, Parent: -1, Op: 2, Name: "op", Start: 10, End: 20},
		{ID: 4, Parent: 3, Op: 2, Name: "replay", Start: 10, End: 13, Allocs: 1, Work: 7},
	}
	tot := layerTotals(spans)["replay"]
	if tot.Spans != 3 || tot.Ops != 2 || tot.SelfNS != 7 || tot.Allocs != 11 || tot.Work != 7 {
		t.Errorf("replay totals = %+v", tot)
	}
	if op := layerTotals(spans)["op"]; op.SelfNS != 20-7 {
		t.Errorf("op self = %d, want 13", op.SelfNS)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.begin("x", 0, -1, true)
	r.setWork(id, 3)
	r.end(id)
	if id != -1 {
		t.Errorf("nil recorder returned span id %d", id)
	}
}
