package memctrl

import (
	"testing"
	"testing/quick"

	"orderlight/internal/config"
	"orderlight/internal/isa"
	"orderlight/internal/sim"
)

// TestControllerEpochOrderProperty drives the full controller with
// random request streams punctuated by OrderLight packets and verifies
// the end-to-end invariant at the device: within a memory-group, no
// request crosses an OrderLight packet that separates it from an older
// request.
func TestControllerEpochOrderProperty(t *testing.T) {
	cfg := config.Default()
	f := func(plan []uint16, seed uint64) bool {
		c, _, geom, _ := newTestController(cfg)
		var log []isa.Request
		c.IssueLog = &log
		rng := sim.NewRand(seed)

		// epochOf[group] counts OrderLight packets sent to that group;
		// sent[id] records each request's (group, epoch).
		type tag struct {
			group int
			epoch int
		}
		epochOf := map[int]int{}
		pktNum := map[int]uint32{}
		sent := map[uint64]tag{}
		var queue []isa.Request
		var id uint64 = 1
		for _, op := range plan {
			if op%7 == 0 {
				g := int(op/7) % geom.Groups
				queue = append(queue, olReq(id, g, pktNum[g]))
				pktNum[g]++
				epochOf[g]++
				id++
				continue
			}
			bank := int(op) % geom.Banks
			row := int(op/16) % 8
			col := rng.Intn(geom.SlotsPerRow)
			kind := isa.KindPIMLoad
			if op%3 == 0 {
				kind = isa.KindPIMStore
			}
			r := req(geom, id, kind, isa.OpNop, bank, row, col, 0)
			sent[id] = tag{group: int(r.Group), epoch: epochOf[int(r.Group)]}
			queue = append(queue, r)
			id++
		}
		// Feed and drain.
		for cy := int64(0); cy < 200000; cy++ {
			for len(queue) > 0 && c.CanAccept(queue[0]) {
				c.Accept(queue[0])
				queue = queue[1:]
			}
			c.Tick(cy)
			if len(queue) == 0 && c.Pending() == 0 {
				break
			}
		}
		if c.Pending() != 0 {
			return false // stuck
		}
		// Invariant: per group, device-issue epochs are non-decreasing.
		lastEpoch := map[int]int{}
		for _, r := range log {
			tg := sent[r.ID]
			if tg.epoch < lastEpoch[tg.group] {
				return false
			}
			lastEpoch[tg.group] = tg.epoch
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestControllerRefreshStateMachine(t *testing.T) {
	cfg := config.Default()
	cfg.Memory.RefreshEnabled = true
	cfg.Memory.REFI = 200
	cfg.Memory.RFC = 40
	c, _, geom, st := newTestController(cfg)

	// A steady stream of row-hit stores, long enough to span several
	// refresh windows.
	var queue []isa.Request
	var id uint64 = 1
	for i := 0; i < 256; i++ {
		queue = append(queue, req(geom, id, isa.KindPIMStore, isa.OpNop, 0, 0, i%64, 0))
		id++
	}
	var done int64 = -1
	for cy := int64(0); cy < 100000; cy++ {
		for len(queue) > 0 && c.CanAccept(queue[0]) {
			c.Accept(queue[0])
			queue = queue[1:]
		}
		c.Tick(cy)
		if len(queue) == 0 && c.Pending() == 0 {
			done = cy
			break
		}
	}
	if done < 0 {
		t.Fatal("stream did not drain under refresh")
	}
	if st.Refreshes == 0 {
		t.Fatal("no refreshes performed")
	}
	wantMin := done/int64(cfg.Memory.REFI) - 2
	if int64(st.Refreshes) < wantMin {
		t.Fatalf("refreshes = %d over %d cycles, want >= %d", st.Refreshes, done, wantMin)
	}
	if st.PIMCommands != 256 {
		t.Fatalf("commands lost across refresh: %d", st.PIMCommands)
	}
}

func TestControllerRefreshDrainsOpenBanks(t *testing.T) {
	cfg := config.Default()
	cfg.Memory.RefreshEnabled = true
	cfg.Memory.REFI = 100
	cfg.Memory.RFC = 30
	c, _, geom, st := newTestController(cfg)

	// Open several banks, then go idle across a refresh boundary: the
	// drain must precharge them all.
	for b := 0; b < 4; b++ {
		c.Accept(req(geom, uint64(b+1), isa.KindPIMStore, isa.OpNop, b, 0, 0, 0))
	}
	for cy := int64(0); cy < 400; cy++ {
		c.Tick(cy)
	}
	if st.Refreshes == 0 {
		t.Fatal("idle channel never refreshed")
	}
	if st.PreCmds < 4 {
		t.Fatalf("PreCmds = %d, want >= 4 (drain precharges)", st.PreCmds)
	}
}

// TestControllerSeqnoOoOArrivalNoDeadlock: requests arriving out of
// sequence order (as an OoO host produces) must still drain — the
// PopBest dequeue keeps the next expected sequence reachable.
func TestControllerSeqnoOoOArrivalNoDeadlock(t *testing.T) {
	cfg := config.Default()
	cfg.Run.Primitive = config.PrimitiveSeqno
	c, _, geom, _ := newTestController(cfg)
	var log []isa.Request
	c.IssueLog = &log

	// Arrival order 2,0,3,1 with mixed read/write queues.
	mk := func(id uint64, seq uint64, kind isa.Kind, row int) isa.Request {
		r := req(geom, id, kind, isa.OpNop, 0, row, int(seq), 0)
		r.Seq = seq
		return r
	}
	c.Accept(mk(1, 2, isa.KindPIMStore, 1))
	c.Accept(mk(2, 0, isa.KindPIMLoad, 0))
	c.Accept(mk(3, 3, isa.KindPIMLoad, 0))
	c.Accept(mk(4, 1, isa.KindPIMStore, 1))
	if cy := run(c, 10000); cy >= 10000 {
		t.Fatal("out-of-order arrival deadlocked the seqno controller")
	}
	for i := 0; i < 4; i++ {
		if log[i].Seq != uint64(i) {
			t.Fatalf("issue order %v, want seq order", ids(log))
		}
	}
}
