package trace

import (
	"fmt"
	"strings"
	"testing"

	"orderlight/internal/isa"
	"orderlight/internal/sim"
)

func req(id uint64) isa.Request {
	return isa.Request{ID: id, Kind: isa.KindPIMLoad, Channel: 1, Group: 0}
}

func TestTracerRingRetention(t *testing.T) {
	tr := New(3)
	for i := 1; i <= 5; i++ {
		tr.Record(sim.Time(i*100), StageInject, req(uint64(i)))
	}
	if tr.Total() != 5 {
		t.Fatalf("Total = %d, want 5", tr.Total())
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events, want 3", len(evs))
	}
	// Chronological order, the most recent three.
	if evs[0].Req.ID != 3 || evs[2].Req.ID != 5 {
		t.Fatalf("events = %v..%v, want 3..5", evs[0].Req.ID, evs[2].Req.ID)
	}
	if evs[0].At > evs[1].At || evs[1].At > evs[2].At {
		t.Fatal("events not chronological")
	}
}

func TestTracerZeroMaxClamps(t *testing.T) {
	tr := New(0)
	tr.Record(1, StageInject, req(1))
	tr.Record(2, StageInject, req(2))
	if len(tr.Events()) != 1 {
		t.Fatal("zero-max tracer should clamp to one retained event")
	}
}

func TestLifecycleAssembly(t *testing.T) {
	tr := New(64)
	stages := []Stage{StageInject, StageL2, StageToDRAM, StageMC, StageDevice}
	// Request 7 crosses every stage; request 8 only injects.
	for i, s := range stages {
		tr.Record(sim.Time(100+i*50), s, req(7))
	}
	tr.Record(sim.Time(120), StageInject, req(8))
	// An orphan MC event (inject fell out of the window) is dropped.
	tr.Record(sim.Time(10), StageMC, req(9))

	lcs := tr.Lifecycles()
	if len(lcs) != 2 {
		t.Fatalf("lifecycles = %d, want 2", len(lcs))
	}
	if lcs[0].Req.ID != 7 || lcs[1].Req.ID != 8 {
		t.Fatalf("order = [%d %d], want injection order [7 8]", lcs[0].Req.ID, lcs[1].Req.ID)
	}
	if got := lcs[0].Latency(); got != 200 {
		t.Fatalf("latency = %d, want 200", got)
	}
	if lcs[1].Latency() != 0 {
		t.Fatal("request without device stamp should report zero latency")
	}
}

// TestLifecycleTiesOrderedByID pins a deterministic order for requests
// injected in the same cycle: Lifecycles walks a map, so without the ID
// tie-break the oltrace timeline reshuffled its rows run to run.
func TestLifecycleTiesOrderedByID(t *testing.T) {
	for run := 0; run < 20; run++ {
		tr := New(64)
		for _, id := range []uint64{5, 2, 9, 1, 7} {
			tr.Record(sim.Time(34), StageInject, req(id))
		}
		var got []uint64
		for _, lc := range tr.Lifecycles() {
			got = append(got, lc.Req.ID)
		}
		if fmt.Sprint(got) != "[1 2 5 7 9]" {
			t.Fatalf("same-cycle lifecycles in order %v, want [1 2 5 7 9]", got)
		}
	}
}

func TestLifecycleStampsMonotonic(t *testing.T) {
	tr := New(64)
	for i, s := range []Stage{StageInject, StageL2, StageToDRAM, StageMC, StageDevice} {
		tr.Record(sim.Time(17*(i+1)), s, req(1))
	}
	lc := tr.Lifecycles()[0]
	for s := StageInject; s < StageDevice; s++ {
		if lc.Stamps[s] >= lc.Stamps[s+1] {
			t.Fatalf("stage %v stamp %d not before %v stamp %d", s, lc.Stamps[s], s+1, lc.Stamps[s+1])
		}
	}
}

func TestTimelineRendering(t *testing.T) {
	tr := New(64)
	for i, s := range []Stage{StageInject, StageL2, StageToDRAM, StageMC, StageDevice} {
		tr.Record(sim.Time(17*(i*10+1)), s, req(42))
	}
	out := tr.Timeline(10)
	for _, want := range []string{"#42", "PIM_Load", "device", "latency"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	if got := New(4).Timeline(10); !strings.Contains(got, "no traced requests") {
		t.Errorf("empty timeline = %q", got)
	}
}

func TestTimelineLimit(t *testing.T) {
	tr := New(64)
	for i := 1; i <= 5; i++ {
		tr.Record(sim.Time(i*17), StageInject, req(uint64(i)))
	}
	out := tr.Timeline(2)
	if !strings.Contains(out, "3 more") {
		t.Errorf("limit note missing:\n%s", out)
	}
}

func TestStageString(t *testing.T) {
	if StageInject.String() != "inject" || StageDevice.String() != "device" {
		t.Error("Stage.String mismatch")
	}
	if !strings.HasPrefix(Stage(99).String(), "Stage(") {
		t.Error("unknown stage should render as Stage(n)")
	}
}
