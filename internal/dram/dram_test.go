package dram

import (
	"testing"
	"testing/quick"

	"orderlight/internal/config"
	"orderlight/internal/isa"
	"orderlight/internal/sim"
)

func testGeometry() Geometry {
	c := config.Default()
	return NewGeometry(c.Memory.Channels, c.Memory.BanksPerChannel,
		c.Memory.RowBufferBytes, c.Memory.BusWidthBytes,
		c.Memory.GroupsPerChannel, c.PIM.BMF)
}

func TestGeometryDerivation(t *testing.T) {
	g := testGeometry()
	if g.SlotsPerRow != 64 {
		t.Errorf("SlotsPerRow = %d, want 64 (2048/32)", g.SlotsPerRow)
	}
	if g.LanesPerSlot != 128 {
		t.Errorf("LanesPerSlot = %d, want 128 (8 lanes x BMF 16)", g.LanesPerSlot)
	}
}

func TestGeometryRoundTripProperty(t *testing.T) {
	g := testGeometry()
	f := func(ch, bank, row, col uint16) bool {
		l := Loc{
			Channel: int(ch) % g.Channels,
			Bank:    int(bank) % g.Banks,
			Row:     int(row) % 1024,
			Col:     int(col) % g.SlotsPerRow,
		}
		return g.Decode(g.Encode(l)) == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeometryEncodePanicsOutOfRange(t *testing.T) {
	g := testGeometry()
	defer func() {
		if recover() == nil {
			t.Fatal("Encode out of range did not panic")
		}
	}()
	g.Encode(Loc{Channel: g.Channels})
}

func TestGeometryConsecutiveColsShareRow(t *testing.T) {
	g := testGeometry()
	a := g.Encode(Loc{Channel: 3, Bank: 2, Row: 5, Col: 0})
	b := g.Encode(Loc{Channel: 3, Bank: 2, Row: 5, Col: 1})
	if uint64(b)-uint64(a) != uint64(g.Channels) {
		t.Fatalf("column stride = %d, want %d (channel interleave)", b-a, g.Channels)
	}
}

func TestGroupOf(t *testing.T) {
	g := testGeometry() // 16 banks, 4 groups -> 4 banks each
	cases := map[int]int{0: 0, 3: 0, 4: 1, 7: 1, 12: 3, 15: 3}
	for bank, want := range cases {
		if got := g.GroupOf(bank); got != want {
			t.Errorf("GroupOf(%d) = %d, want %d", bank, got, want)
		}
	}
	banks := g.BanksOfGroup(2)
	if len(banks) != 4 || banks[0] != 8 || banks[3] != 11 {
		t.Errorf("BanksOfGroup(2) = %v", banks)
	}
}

func defaultTiming() *Timing {
	return NewTiming(config.Default().Memory.Timing, 16)
}

func TestTimingActivateThenColumn(t *testing.T) {
	tm := defaultTiming()
	if !tm.CanIssue(CmdACT, 0, 7, 0) {
		t.Fatal("ACT on idle bank at cycle 0 rejected")
	}
	tm.Issue(CmdACT, 0, 7, 0)
	if tm.OpenRow(0) != 7 {
		t.Fatalf("OpenRow = %d, want 7", tm.OpenRow(0))
	}
	// RCDW=9: first write legal exactly at cycle 9.
	if tm.CanIssue(CmdWR, 0, 7, 8) {
		t.Fatal("WR allowed before tRCDW")
	}
	if !tm.CanIssue(CmdWR, 0, 7, 9) {
		t.Fatal("WR rejected at tRCDW")
	}
	// Reads to a different row are illegal regardless of time.
	if e := tm.Earliest(CmdRD, 0, 8); e != -1 {
		t.Fatalf("RD to closed row earliest = %d, want -1", e)
	}
}

// TestTimingFigure11 reproduces the paper's Figure 11 arithmetic: open a
// row, send 8 column writes, precharge, open the next row — exactly 44
// memory cycles with Table 1 timing (tRCDW=9 + 7xtCCDL=14 + tWTP=9 +
// tRP=12).
func TestTimingFigure11(t *testing.T) {
	tm := defaultTiming()
	tm.Issue(CmdACT, 0, 0, 0)
	cycle := int64(9) // first write at tRCDW
	for i := 0; i < 8; i++ {
		e := tm.Earliest(CmdWR, 0, 0)
		if e > cycle {
			cycle = e
		}
		tm.Issue(CmdWR, 0, 0, cycle)
	}
	if cycle != 23 {
		t.Fatalf("8th write at cycle %d, want 23 (9 + 7x2)", cycle)
	}
	pre := tm.Earliest(CmdPRE, 0, 0)
	if pre != 32 {
		t.Fatalf("PRE earliest = %d, want 32 (23 + tWTP 9)", pre)
	}
	tm.Issue(CmdPRE, 0, 0, pre)
	act := tm.Earliest(CmdACT, 0, 1)
	if act != 44 {
		t.Fatalf("next ACT earliest = %d, want 44 (32 + tRP 12)", act)
	}
}

func TestTimingReadRowCycle(t *testing.T) {
	// Same exercise with reads: ACT@0, RD@9..23. Read-to-precharge
	// (23+RTP=25) is floored by tRAS=28, so PRE@28 and ACT@28+12=40.
	tm := defaultTiming()
	tm.Issue(CmdACT, 1, 0, 0)
	cycle := int64(0)
	for i := 0; i < 8; i++ {
		e := tm.Earliest(CmdRD, 1, 0)
		if e > cycle {
			cycle = e
		}
		tm.Issue(CmdRD, 1, 0, cycle)
	}
	if cycle != 23 {
		t.Fatalf("8th read at cycle %d, want 23", cycle)
	}
	if pre := tm.Earliest(CmdPRE, 1, 0); pre != 28 {
		t.Fatalf("PRE earliest = %d, want 28 (tRAS floor)", pre)
	}
	tm.Issue(CmdPRE, 1, 0, 28)
	if act := tm.Earliest(CmdACT, 1, 5); act != 40 {
		t.Fatalf("next ACT earliest = %d, want 40", act)
	}
}

func TestTimingRASFloor(t *testing.T) {
	// With a single column access, precharge waits for tRAS (28), not
	// the column-to-precharge delay.
	tm := defaultTiming()
	tm.Issue(CmdACT, 0, 0, 0)
	tm.Issue(CmdWR, 0, 0, 9)
	if pre := tm.Earliest(CmdPRE, 0, 0); pre != 28 {
		t.Fatalf("PRE earliest = %d, want 28 (tRAS)", pre)
	}
}

func TestTimingRRDAcrossBanks(t *testing.T) {
	tm := defaultTiming()
	tm.Issue(CmdACT, 0, 0, 0)
	if tm.CanIssue(CmdACT, 1, 0, 2) {
		t.Fatal("ACT on second bank inside tRRD allowed")
	}
	if !tm.CanIssue(CmdACT, 1, 0, 3) {
		t.Fatal("ACT on second bank at tRRD rejected")
	}
}

func TestTimingColumnSpacingAcrossBanks(t *testing.T) {
	tm := defaultTiming()
	tm.Issue(CmdACT, 0, 0, 0)
	tm.Issue(CmdACT, 1, 0, 3)
	tm.Issue(CmdRD, 0, 0, 9)
	// Different bank: CCD=1 applies.
	if !tm.CanIssue(CmdRD, 1, 0, 12) {
		t.Fatal("cross-bank read at RCDR+CCD window rejected")
	}
	// Same bank: CCDL=2 applies.
	if tm.CanIssue(CmdRD, 0, 0, 10) {
		t.Fatal("same-bank read inside tCCDL allowed")
	}
	if !tm.CanIssue(CmdRD, 0, 0, 11) {
		t.Fatal("same-bank read at tCCDL rejected")
	}
}

func TestTimingReadWriteTurnaround(t *testing.T) {
	tm := defaultTiming()
	tm.Issue(CmdACT, 0, 0, 0)
	tm.Issue(CmdRD, 0, 0, 9)
	// CDLR=3: a write after a read waits the turnaround, not just CCDL.
	if tm.CanIssue(CmdWR, 0, 0, 11) {
		t.Fatal("write inside read-to-write turnaround allowed")
	}
	if !tm.CanIssue(CmdWR, 0, 0, 12) {
		t.Fatal("write at read-to-write turnaround rejected")
	}
}

func TestTimingIssuePanicsOnViolation(t *testing.T) {
	tm := defaultTiming()
	defer func() {
		if recover() == nil {
			t.Fatal("illegal Issue did not panic")
		}
	}()
	tm.Issue(CmdRD, 0, 0, 0) // closed bank
}

// TestTimingNeverAdmitsViolationProperty drives random command attempts
// through CanIssue/Issue and re-validates externally that per-bank
// protocol invariants hold: column commands only to the open row, no
// ACT on an open bank, no PRE on a closed one, monotonically
// non-decreasing issue cycles per constraint window.
func TestTimingNeverAdmitsViolationProperty(t *testing.T) {
	cfg := config.Default().Memory.Timing
	f := func(ops []uint16, seed uint64) bool {
		tm := NewTiming(cfg, 4)
		rng := sim.NewRand(seed)
		open := [4]int{-1, -1, -1, -1}
		cycle := int64(0)
		for _, op := range ops {
			b := int(op) % 4
			row := int(op/4) % 8
			var cmd Cmd
			switch (op / 32) % 4 {
			case 0:
				cmd = CmdACT
			case 1:
				cmd = CmdPRE
			case 2:
				cmd = CmdRD
			case 3:
				cmd = CmdWR
			}
			cycle += int64(rng.Intn(4))
			if !tm.CanIssue(cmd, b, row, cycle) {
				continue
			}
			// External protocol invariants, tracked independently.
			switch cmd {
			case CmdACT:
				if open[b] != -1 {
					return false
				}
				open[b] = row
			case CmdPRE:
				if open[b] == -1 {
					return false
				}
				open[b] = -1
			case CmdRD, CmdWR:
				if open[b] != row {
					return false
				}
			}
			tm.Issue(cmd, b, row, cycle)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreReadWrite(t *testing.T) {
	s := NewStore(4)
	a := isa.Addr(100)
	if got := s.Read(a); len(got) != 4 || got[0] != 0 {
		t.Fatalf("fresh Read = %v, want zeros", got)
	}
	s.Write(a, []int32{1, 2, 3, 4})
	if got := s.Read(a); got[2] != 3 {
		t.Fatalf("Read = %v", got)
	}
	s.Write(a, []int32{10, 20, 30, 40})
	if got := s.Read(a); got[3] != 40 {
		t.Fatalf("after rewrite, Read = %v", got)
	}
	if s.Touched() != 1 {
		t.Fatalf("Touched = %d, want 1", s.Touched())
	}
}

func TestStoreWriteWrongLanesPanics(t *testing.T) {
	s := NewStore(4)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-lane write did not panic")
		}
	}()
	s.Write(0, []int32{1})
}

func TestStoreCloneAndEqual(t *testing.T) {
	s := NewStore(2)
	s.Write(1, []int32{5, 6})
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c.Write(1, []int32{5, 7})
	if s.Equal(c) {
		t.Fatal("diverged stores reported equal")
	}
	if d := s.Diff(c, 10); len(d) != 1 || d[0] != 1 {
		t.Fatalf("Diff = %v, want [1]", d)
	}
	// A zero-filled written slot equals an absent slot.
	z := NewStore(2)
	z.Write(9, []int32{0, 0})
	if !z.Equal(NewStore(2)) {
		t.Fatal("explicit zeros should equal absent slot")
	}
}

func TestStoreReadIsolation(t *testing.T) {
	// Read of an absent slot returns a fresh buffer each time; mutating
	// it must not corrupt the store.
	s := NewStore(2)
	v := s.Read(3)
	v[0] = 99
	if got := s.Read(3); got[0] != 0 {
		t.Fatal("mutating a Read result of an absent slot leaked into the store")
	}
}
