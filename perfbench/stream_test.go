package main

import (
	"reflect"
	"testing"
)

func TestCellStreamDeterministic(t *testing.T) {
	a := newCellStream(7, saltCold, simFootprints).take(100)
	b := newCellStream(7, saltCold, simFootprints).take(100)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different streams")
	}
	c := newCellStream(8, saltCold, simFootprints).take(100)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same stream")
	}
}

func TestCellStreamRoundsAreBalanced(t *testing.T) {
	s := newCellStream(3, saltCold, simFootprints)
	n := len(pairs())
	seen := make(map[cellSpec]bool)
	for round := 0; round < 2*n; round++ {
		perPair := make(map[cellSpec]int)
		perTS := make(map[string]int)
		for _, c := range s.take(n) {
			if seen[c] {
				t.Fatalf("cell %v repeated", c)
			}
			seen[c] = true
			if c.Bytes < simFootprints.lo || c.Bytes > simFootprints.hi+int64(n)*footprintStep {
				t.Fatalf("footprint %d outside %v", c.Bytes, simFootprints)
			}
			if c.Bytes%footprintStep != 0 {
				t.Fatalf("footprint %d not a multiple of %d", c.Bytes, footprintStep)
			}
			perPair[cellSpec{Kernel: c.Kernel, Primitive: c.Primitive}]++
			perTS[c.TS]++
		}
		if len(perPair) != n {
			t.Fatalf("round %d covers %d of %d pairs", round, len(perPair), n)
		}
		for ts, k := range perTS {
			if k != n/4 {
				t.Fatalf("round %d: TS %s used %d times, want %d", round, ts, k, n/4)
			}
		}
	}
}

func TestServePlanDeterministic(t *testing.T) {
	gen := func() [][]serveOp {
		plan := newServePlan(11, serveClients, primedReqs)
		var out [][]serveOp
		for c := 0; c < serveClients; c++ {
			cl := plan.client(11, c)
			var ops []serveOp
			for i := 0; i < 200; i++ {
				ops = append(ops, cl.next())
			}
			out = append(out, ops)
		}
		return out
	}
	if !reflect.DeepEqual(gen(), gen()) {
		t.Fatal("same seed gave different client streams")
	}
}

func TestServePlanRepeatShareIsExact(t *testing.T) {
	plan := newServePlan(5, serveClients, primedReqs)
	for c := 0; c < serveClients; c++ {
		cl := plan.client(5, c)
		repeats := 0
		for i := 1; i <= 40*blockLen; i++ {
			if cl.next().Repeat {
				repeats++
			}
			if i%blockLen == 0 && repeats != i/blockLen*(blockLen-1) {
				t.Fatalf("client %d: %d repeats after %d ops, want %d", c, repeats, i, i/blockLen*(blockLen-1))
			}
		}
	}
}

// Repeats may reference only requests that have completed: a primed
// one, or one of the same client's earlier new requests (the client's
// loop is closed, so those have finished). Requests of the other client
// may still be running and must never be referenced.
func TestServePlanRepeatsReferenceCompletedRequests(t *testing.T) {
	plan := newServePlan(9, serveClients, primedReqs)
	for c := 0; c < serveClients; c++ {
		cl := plan.client(9, c)
		completed := make(map[int]bool)
		for i := 0; i < primedReqs; i++ {
			completed[i] = true
		}
		for i := 0; i < 400; i++ {
			op := cl.next()
			if op.Repeat {
				if !completed[op.Req] {
					t.Fatalf("client %d op %d repeats request %d before it completed", c, i, op.Req)
				}
				continue
			}
			if completed[op.Req] {
				t.Fatalf("client %d op %d: new request %d was already issued", c, i, op.Req)
			}
			if (op.Req-primedReqs)%serveClients != c {
				t.Fatalf("client %d issued request %d, which belongs to another client", c, op.Req)
			}
			completed[op.Req] = true
		}
	}
}

func TestServePlanRequestsAreDistinct(t *testing.T) {
	plan := newServePlan(2, serveClients, primedReqs)
	seen := make(map[cellSpec]int)
	for i := 0; i < 500; i++ {
		c := plan.request(i)
		if j, ok := seen[c]; ok {
			t.Fatalf("requests %d and %d are the same cell %v", j, i, c)
		}
		seen[c] = i
		if c.Bytes < serveFootprints.lo || c.Bytes > serveFootprints.hi+int64(len(pairs()))*footprintStep {
			t.Fatalf("footprint %d outside %v", c.Bytes, serveFootprints)
		}
	}
}
