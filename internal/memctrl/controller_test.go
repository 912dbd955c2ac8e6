package memctrl

import (
	"testing"

	"orderlight/internal/config"
	"orderlight/internal/dram"
	"orderlight/internal/fault"
	"orderlight/internal/isa"
	"orderlight/internal/stats"
)

func newTestController(cfg config.Config) (*Controller, *dram.Store, dram.Geometry, *stats.Run) {
	geom := dram.NewGeometry(cfg.Memory.Channels, cfg.Memory.BanksPerChannel,
		cfg.Memory.RowBufferBytes, cfg.Memory.BusWidthBytes,
		cfg.Memory.GroupsPerChannel, cfg.PIM.BMF)
	store := dram.NewStore(geom.LanesPerSlot)
	st := stats.New(cfg.BytesPerCommand())
	c := New(0, cfg, geom, store, st)
	return c, store, geom, st
}

// req builds a request targeting channel 0 with fields resolved the way
// the NoC resolves them before the controller.
func req(geom dram.Geometry, id uint64, kind isa.Kind, op isa.ALUOp, bank, row, col, slot int) isa.Request {
	addr := geom.Encode(dram.Loc{Channel: 0, Bank: bank, Row: row, Col: col})
	return isa.Request{
		ID: id, Kind: kind, Op: op, Addr: addr,
		Channel: 0, Group: uint8(geom.GroupOf(bank)), Bank: uint8(bank), Row: int32(row), TSlot: uint16(slot),
	}
}

func olReq(id uint64, group int, num uint32) isa.Request {
	return isa.Request{
		ID: id, Kind: isa.KindOrderLight, Channel: 0, Group: uint8(group),
		OL: isa.OLPacket{PktID: isa.PktIDOrderLight, Channel: 0, Group: uint8(group), Number: num},
	}
}

// run ticks the controller until it drains or maxCycles pass.
func run(c *Controller, maxCycles int64) int64 {
	for cy := int64(0); cy < maxCycles; cy++ {
		c.Tick(cy)
		if c.Pending() == 0 {
			return cy
		}
	}
	return maxCycles
}

func TestControllerVectorAddTile(t *testing.T) {
	cfg := config.Default()
	c, store, geom, _ := newTestController(cfg)

	// One tile of Figure 4 with N=2: rows 0 (a), 1 (b), 2 (c) in bank 0.
	for col := 0; col < 2; col++ {
		a := geom.Encode(dram.Loc{Channel: 0, Bank: 0, Row: 0, Col: col})
		b := geom.Encode(dram.Loc{Channel: 0, Bank: 0, Row: 1, Col: col})
		av := make([]int32, geom.LanesPerSlot)
		bv := make([]int32, geom.LanesPerSlot)
		for l := range av {
			av[l] = int32(100 + col)
			bv[l] = int32(1000 + col)
		}
		store.Write(a, av)
		store.Write(b, bv)
	}
	seq := []isa.Request{
		req(geom, 1, isa.KindPIMLoad, isa.OpNop, 0, 0, 0, 0),
		req(geom, 2, isa.KindPIMLoad, isa.OpNop, 0, 0, 1, 1),
		olReq(3, 0, 0),
		req(geom, 4, isa.KindPIMCompute, isa.OpAdd, 0, 1, 0, 0),
		req(geom, 5, isa.KindPIMCompute, isa.OpAdd, 0, 1, 1, 1),
		olReq(6, 0, 1),
		req(geom, 7, isa.KindPIMStore, isa.OpNop, 0, 2, 0, 0),
		req(geom, 8, isa.KindPIMStore, isa.OpNop, 0, 2, 1, 1),
	}
	for _, r := range seq {
		if !c.CanAccept(r) {
			t.Fatalf("controller rejected %v", r)
		}
		c.Accept(r)
	}
	if cy := run(c, 10000); cy >= 10000 {
		t.Fatal("controller did not drain")
	}
	for col := 0; col < 2; col++ {
		cAddr := geom.Encode(dram.Loc{Channel: 0, Bank: 0, Row: 2, Col: col})
		got := store.Read(cAddr)
		want := int32(1100 + 2*col)
		if got[0] != want {
			t.Fatalf("c[%d] = %d, want %d", col, got[0], want)
		}
	}
}

func TestControllerOrderLightPreventsOvertake(t *testing.T) {
	cfg := config.Default()
	c, _, geom, _ := newTestController(cfg)
	var log []isa.Request
	c.IssueLog = &log

	// Tile t: store to row 2 (bank 0). OrderLight. Tile t+1: loads to
	// row 0 (bank 0). Without ordering the loads would be preferred once
	// row 0 opens; with OrderLight they must wait for the store.
	c.Accept(req(geom, 1, isa.KindPIMStore, isa.OpNop, 0, 2, 0, 0))
	c.Accept(olReq(2, 0, 0))
	c.Accept(req(geom, 3, isa.KindPIMLoad, isa.OpNop, 0, 0, 0, 0))
	c.Accept(req(geom, 4, isa.KindPIMLoad, isa.OpNop, 0, 0, 1, 1))
	run(c, 10000)

	if len(log) != 3 {
		t.Fatalf("issued %d requests, want 3", len(log))
	}
	if log[0].ID != 1 {
		t.Fatalf("issue order %v: store did not issue first", ids(log))
	}
}

func TestControllerNoPrimitiveAllowsReorder(t *testing.T) {
	cfg := config.Default()
	c, _, geom, _ := newTestController(cfg)
	var log []isa.Request
	c.IssueLog = &log

	// Same-bank conflict: oldest is a store to row 2, then loads to row
	// 0 — all in one epoch. The store is oldest so its ACT goes first,
	// but once any row opens, row-hit-first can pick younger loads.
	// Craft the canonical hazard: loads to the row that is already open.
	c.Accept(req(geom, 1, isa.KindPIMLoad, isa.OpNop, 0, 0, 0, 0)) // opens row 0
	c.Accept(req(geom, 2, isa.KindPIMStore, isa.OpNop, 0, 2, 0, 0))
	c.Accept(req(geom, 3, isa.KindPIMLoad, isa.OpNop, 0, 0, 1, 1)) // row hit on 0
	run(c, 10000)

	if len(log) != 3 {
		t.Fatalf("issued %d requests, want 3", len(log))
	}
	// FR-FCFS must have hoisted request 3 (row hit) above request 2.
	if !(log[0].ID == 1 && log[1].ID == 3 && log[2].ID == 2) {
		t.Fatalf("issue order %v: expected row-hit-first reorder [1 3 2]", ids(log))
	}
}

func TestControllerGroupsIndependent(t *testing.T) {
	cfg := config.Default()
	c, _, geom, _ := newTestController(cfg)
	var log []isa.Request
	c.IssueLog = &log

	// Group 0 (bank 0) is blocked behind an OrderLight; group 1 (bank 4)
	// must proceed immediately.
	c.Accept(req(geom, 1, isa.KindPIMStore, isa.OpNop, 0, 9, 0, 0))
	c.Accept(olReq(2, 0, 0))
	c.Accept(req(geom, 3, isa.KindPIMLoad, isa.OpNop, 0, 1, 0, 0)) // group 0, gated
	c.Accept(req(geom, 4, isa.KindPIMLoad, isa.OpNop, 4, 0, 0, 1)) // group 1, free
	run(c, 10000)

	// Request 4 must not be last: it is independent of group 0's barrier.
	if log[len(log)-1].ID == 4 {
		t.Fatalf("issue order %v: independent group was serialized", ids(log))
	}
}

func TestControllerOLMergesOnceAcrossQueues(t *testing.T) {
	cfg := config.Default()
	c, _, geom, st := newTestController(cfg)

	// Reads and writes in flight on both queues, one OL between them.
	c.Accept(req(geom, 1, isa.KindPIMLoad, isa.OpNop, 0, 0, 0, 0))
	c.Accept(req(geom, 2, isa.KindPIMStore, isa.OpNop, 0, 1, 0, 0))
	c.Accept(olReq(3, 0, 0))
	c.Accept(req(geom, 4, isa.KindPIMLoad, isa.OpNop, 0, 0, 1, 1))
	run(c, 10000)

	if st.OLMerges != 1 {
		t.Fatalf("OLMerges = %d, want exactly 1 (copies merged at scheduler)", st.OLMerges)
	}
	if st.PIMCommands != 3 {
		t.Fatalf("PIMCommands = %d, want 3", st.PIMCommands)
	}
}

// TestControllerMultiGroupOLMerge checks that a merged packet programs
// its base group and every extension group of its mask (a repeated base
// bit once), and that a weakened drain programs the base group only and
// counts each extension group it dropped.
func TestControllerMultiGroupOLMerge(t *testing.T) {
	for _, weaken := range []bool{false, true} {
		cfg := config.Default()
		c, _, geom, _ := newTestController(cfg)
		if weaken {
			c.Fault = fault.NewPlan(fault.Spec{Class: fault.ClassWeakenDrain, Seed: 1, Rate: 1})
		}
		// One outstanding store in each of groups 0, 1 and 2, then the
		// packet. Four ticks dequeue all four entries; no store can
		// reach its column command that fast (each needs an activate).
		for i, bank := range []int{0, 4, 8} {
			c.Accept(req(geom, uint64(i+1), isa.KindPIMStore, isa.OpNop, bank, 9, 0, i))
		}
		ol := olReq(4, 0, 0)
		ol.OL.ExtraMask = isa.GroupMask([]uint8{2, 0, 1})
		c.Accept(ol)
		for cy := int64(0); cy < 4; cy++ {
			c.Tick(cy)
		}
		for g, want := range []bool{true, !weaken, !weaken} {
			if got := c.Tracker().Blocked(g); got != want {
				t.Errorf("weaken=%t: group %d blocked = %t, want %t", weaken, g, got, want)
			}
		}
		if weaken {
			if n := c.Fault.Report().Points[fault.PointOLWeakened]; n != 2 {
				t.Errorf("PointOLWeakened = %d, want 2 (extension groups 1 and 2)", n)
			}
		}
	}
}

func TestControllerPIMExecNoBankTiming(t *testing.T) {
	cfg := config.Default()
	c, _, _, st := newTestController(cfg)
	for i := 0; i < 4; i++ {
		c.Accept(isa.Request{
			ID: uint64(i + 1), Kind: isa.KindPIMExec, Op: isa.OpAdd,
			Channel: 0, Group: 0, TSlot: 0, Imm: 1,
		})
	}
	cy := run(c, 1000)
	// Four execs need only dequeue+bus slots: far less than a row cycle.
	if cy > 20 {
		t.Fatalf("4 exec commands took %d cycles", cy)
	}
	if st.CmdsByKind[isa.KindPIMExec] != 4 {
		t.Fatalf("exec count = %d", st.CmdsByKind[isa.KindPIMExec])
	}
	if st.ActCmds != 0 || st.RowMisses != 0 {
		t.Fatal("exec commands must not touch bank timing")
	}
}

func TestControllerBackpressure(t *testing.T) {
	cfg := config.Default()
	cfg.GPU.RWQueueSize = 2
	c, _, geom, _ := newTestController(cfg)
	// Fill the read queue without ticking.
	c.Accept(req(geom, 1, isa.KindPIMLoad, isa.OpNop, 0, 0, 0, 0))
	c.Accept(req(geom, 2, isa.KindPIMLoad, isa.OpNop, 0, 0, 1, 1))
	if c.CanAccept(req(geom, 3, isa.KindPIMLoad, isa.OpNop, 0, 0, 2, 2)) {
		t.Fatal("full read queue accepted another read")
	}
	// Writes ride the other queue and are still accepted.
	if !c.CanAccept(req(geom, 4, isa.KindPIMStore, isa.OpNop, 0, 1, 0, 0)) {
		t.Fatal("write rejected while write queue empty")
	}
	// An OrderLight needs room on BOTH queues.
	if c.CanAccept(olReq(5, 0, 0)) {
		t.Fatal("OrderLight accepted with a full read queue")
	}
}

func TestControllerRowHitAccounting(t *testing.T) {
	cfg := config.Default()
	c, _, geom, st := newTestController(cfg)
	for i := 0; i < 8; i++ {
		c.Accept(req(geom, uint64(i+1), isa.KindPIMStore, isa.OpNop, 0, 0, i, 0))
	}
	run(c, 10000)
	if st.RowMisses != 1 || st.RowHits != 7 {
		t.Fatalf("hits=%d misses=%d, want 7/1", st.RowHits, st.RowMisses)
	}
	if st.ActCmds != 1 {
		t.Fatalf("ActCmds = %d, want 1", st.ActCmds)
	}
}

// TestControllerFigure11Rate reproduces the steady-state command rate of
// Figure 11: alternating 8-command write bursts between two conflicting
// rows sustain 8 commands per 44 memory cycles (tRCDW 9 + 7xtCCDL 14 +
// tWTP 9 + tRP 12).
func TestControllerFigure11Rate(t *testing.T) {
	cfg := config.Default()
	c, _, geom, st := newTestController(cfg)

	// Lazily generated request stream: per tile, 8 writes to row 0
	// ("vector p"), an OrderLight, 8 writes to row 1 ("vector q"), an
	// OrderLight. Rows conflict in bank 0.
	const tiles = 20
	var queue []isa.Request
	var id uint64 = 1
	var pktNum uint32
	for tile := 0; tile < tiles; tile++ {
		for _, row := range []int{0, 1} {
			for col := 0; col < 8; col++ {
				queue = append(queue, req(geom, id, isa.KindPIMStore, isa.OpNop, 0, row, (tile*8+col)%64, 0))
				id++
			}
			queue = append(queue, olReq(id, 0, pktNum))
			id++
			pktNum++
		}
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
		t.Fatal("stream did not drain")
	}
	if st.PIMCommands != tiles*16 {
		t.Fatalf("PIMCommands = %d, want %d", st.PIMCommands, tiles*16)
	}
	// Steady state: 44 cycles per 8-command burst. Allow slack for the
	// pipeline fill of the first burst.
	wantMin, wantMax := int64(tiles*2*44-50), int64(tiles*2*44+60)
	if done < wantMin || done > wantMax {
		t.Fatalf("drained in %d cycles, want ~%d (8 commands / 44 cycles)", done, tiles*2*44)
	}
}

func TestControllerSeqnoStrictOrder(t *testing.T) {
	cfg := config.Default()
	cfg.Run.Primitive = config.PrimitiveSeqno
	c, _, geom, _ := newTestController(cfg)
	var log []isa.Request
	c.IssueLog = &log

	// The row-hit bait of TestControllerNoPrimitiveAllowsReorder: under
	// sequence numbers the controller must refuse the hoist.
	r1 := req(geom, 1, isa.KindPIMLoad, isa.OpNop, 0, 0, 0, 0)
	r1.Seq = 0
	r2 := req(geom, 2, isa.KindPIMStore, isa.OpNop, 0, 2, 0, 0)
	r2.Seq = 1
	r3 := req(geom, 3, isa.KindPIMLoad, isa.OpNop, 0, 0, 1, 1)
	r3.Seq = 2
	c.Accept(r1)
	c.Accept(r2)
	c.Accept(r3)
	run(c, 10000)

	if len(log) != 3 || log[0].Seq != 0 || log[1].Seq != 1 || log[2].Seq != 2 {
		t.Fatalf("seqno issue order = %v, want strict [0 1 2]", ids(log))
	}
}

func TestControllerSeqnoHostUnordered(t *testing.T) {
	cfg := config.Default()
	cfg.Run.Primitive = config.PrimitiveSeqno
	c, _, geom, _ := newTestController(cfg)
	var log []isa.Request
	c.IssueLog = &log

	// A host load arriving between PIM requests is not held to the PIM
	// sequence: it may issue whenever the scheduler likes.
	p0 := req(geom, 1, isa.KindPIMStore, isa.OpNop, 0, 5, 0, 0)
	p0.Seq = 0
	host := req(geom, 2, isa.KindHostLoad, isa.OpNop, 4, 0, 0, 0)
	host.Seq = 0 // host requests carry no meaningful sequence
	p1 := req(geom, 3, isa.KindPIMLoad, isa.OpNop, 0, 6, 0, 0)
	p1.Seq = 1
	c.Accept(p0)
	c.Accept(host)
	c.Accept(p1)
	run(c, 10000)
	if len(log) != 3 {
		t.Fatalf("issued %d, want 3", len(log))
	}
}

func TestControllerPanicsOnMalformedPIMCommand(t *testing.T) {
	// Failure injection: a PIM command with a TS slot beyond the unit's
	// capacity is a modeling bug and must crash loudly, not corrupt
	// silently.
	cfg := config.Default()
	c, _, geom, _ := newTestController(cfg)
	bad := req(geom, 1, isa.KindPIMLoad, isa.OpNop, 0, 0, 0, 10_000)
	c.Accept(bad)
	defer func() {
		if recover() == nil {
			t.Fatal("malformed PIM command executed without panic")
		}
	}()
	run(c, 10000)
}

func TestControllerPanicsOnNonIncreasingPacketNumbers(t *testing.T) {
	// The packet-number field exists for exactly this sanity check
	// (§5.3.1): a replayed/duplicated packet number is a protocol error.
	cfg := config.Default()
	c, _, _, _ := newTestController(cfg)
	c.Accept(olReq(1, 0, 5))
	c.Accept(olReq(2, 0, 5))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate packet number accepted silently")
		}
	}()
	run(c, 10000)
}

func ids(reqs []isa.Request) []uint64 {
	out := make([]uint64, len(reqs))
	for i, r := range reqs {
		out[i] = r.ID
	}
	return out
}
