package stats

import (
	"strings"
	"testing"

	"orderlight/internal/isa"
	"orderlight/internal/sim"
)

func TestDerivedMetrics(t *testing.T) {
	r := New(512)
	r.Start = 0
	r.End = sim.Time(sim.BaseTickHz) // exactly one second
	for i := 0; i < 2000; i++ {
		r.CountCmd(isa.KindPIMLoad)
	}
	if r.PIMCommands != 2000 {
		t.Fatalf("PIMCommands = %d", r.PIMCommands)
	}
	if got := r.CommandBW(); got != 2000.0/1e9 {
		t.Fatalf("CommandBW = %v", got)
	}
	if got := r.DataBW(); got != 2000.0/1e9*512 {
		t.Fatalf("DataBW = %v", got)
	}
}

func TestPrimitiveMetrics(t *testing.T) {
	r := New(512)
	r.FenceCount = 4
	r.FenceStallCycles = 800
	for i := 0; i < 16; i++ {
		r.CountCmd(isa.KindPIMStore)
	}
	if got := r.WaitCyclesPerFence(); got != 200 {
		t.Fatalf("WaitCyclesPerFence = %v", got)
	}
	if got := r.PrimitivesPerPIMInstr(); got != 0.25 {
		t.Fatalf("PrimitivesPerPIMInstr = %v", got)
	}
	r.OLCount = 4
	if got := r.Primitives(); got != 8 {
		t.Fatalf("Primitives = %d", got)
	}
}

func TestZeroGuards(t *testing.T) {
	r := New(512)
	if r.CommandBW() != 0 || r.DataBW() != 0 || r.WaitCyclesPerFence() != 0 ||
		r.PrimitivesPerPIMInstr() != 0 || r.RowHitRate() != 0 {
		t.Fatal("zero-state derived metrics must be 0, not NaN")
	}
}

func TestHostVsPIMClassification(t *testing.T) {
	r := New(512)
	r.CountCmd(isa.KindHostLoad)
	r.CountCmd(isa.KindPIMExec)
	if r.HostCommands != 1 || r.PIMCommands != 1 {
		t.Fatalf("host=%d pim=%d", r.HostCommands, r.PIMCommands)
	}
	// OrderLight packets are neither.
	r.CountCmd(isa.KindOrderLight)
	if r.HostCommands != 1 || r.PIMCommands != 1 {
		t.Fatal("OrderLight miscounted as a command")
	}
}

func TestRowHitRate(t *testing.T) {
	r := New(512)
	r.RowHits, r.RowMisses = 3, 1
	if got := r.RowHitRate(); got != 0.75 {
		t.Fatalf("RowHitRate = %v", got)
	}
}

func TestEnergyBreakdown(t *testing.T) {
	r := New(512)
	r.End = sim.Time(sim.BaseTickHz / 1000) // 1 ms
	r.ActCmds = 10
	r.Refreshes = 2
	for i := 0; i < 100; i++ {
		r.CountCmd(isa.KindPIMLoad) // reads
	}
	for i := 0; i < 50; i++ {
		r.CountCmd(isa.KindPIMStore) // writes
	}
	r.CountCmd(isa.KindPIMExec) // PIM op, no DRAM access

	p := EnergyParams{
		ActNJ: 2, RdNJ: 1, WrNJ: 1.5, RefNJ: 10, PIMOpNJ: 0.5,
		BackgroundW: 0.1, Channels: 4,
	}
	e := r.EnergyBreakdown(p)
	if e.ActivateNJ != 20 {
		t.Errorf("ActivateNJ = %v, want 20", e.ActivateNJ)
	}
	if e.ReadNJ != 100 {
		t.Errorf("ReadNJ = %v, want 100 (exec op must not count as a read)", e.ReadNJ)
	}
	if e.WriteNJ != 75 {
		t.Errorf("WriteNJ = %v, want 75", e.WriteNJ)
	}
	if e.RefreshNJ != 20 {
		t.Errorf("RefreshNJ = %v, want 20", e.RefreshNJ)
	}
	if e.PIMOpNJ != 151*0.5 {
		t.Errorf("PIMOpNJ = %v, want 75.5 (all 151 PIM commands)", e.PIMOpNJ)
	}
	// Background: 0.1 W x 4 channels x 1 ms = 0.4 mJ = 4e5 nJ.
	if e.BackgroundNJ < 3.99e5 || e.BackgroundNJ > 4.01e5 {
		t.Errorf("BackgroundNJ = %v, want ~4e5", e.BackgroundNJ)
	}
	if got := e.TotalNJ(); got != e.ActivateNJ+e.ReadNJ+e.WriteNJ+e.RefreshNJ+e.PIMOpNJ+e.BackgroundNJ {
		t.Errorf("TotalNJ = %v inconsistent", got)
	}
	if r.EDP(p) != e.TotalNJ()*0.001 {
		t.Errorf("EDP = %v", r.EDP(p))
	}
	if !strings.Contains(e.String(), "uJ") {
		t.Error("Energy.String() missing units")
	}
}

func TestStringReport(t *testing.T) {
	r := New(512)
	r.End = sim.Time(1e9)
	r.CountCmd(isa.KindPIMLoad)
	r.Verified, r.Correct = true, true
	s := r.String()
	for _, sub := range []string{"command bandwidth", "PIM_Load", "correct=true"} {
		if !strings.Contains(s, sub) {
			t.Errorf("report missing %q:\n%s", sub, s)
		}
	}
}
