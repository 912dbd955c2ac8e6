package gpu

import (
	"testing"

	"orderlight/internal/config"
	"orderlight/internal/core"
	"orderlight/internal/fault"
	"orderlight/internal/isa"
	"orderlight/internal/sim"
	"orderlight/internal/stats"
)

// driveCore ticks a stand-alone OoO core to completion, acknowledging
// outstanding requests between cycles (standing in for the memory
// side's ack path). Returns the number of ticks consumed.
func driveCore(t *testing.T, c *OoOCore, ft *core.FenceTracker) int {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		if c.Done() {
			return i
		}
		for ft.Outstanding(0) > 0 {
			ft.Acked(0)
		}
		c.Tick(sim.Time(i))
	}
	t.Fatal("core did not finish within 1M ticks")
	return 0
}

// newTestCore builds a stand-alone core over channel 0 of the
// vector_add program with a caller-supplied send hook.
func newTestCore(cfg config.Config, tiles int, send func(isa.Request) bool) (*OoOCore, *core.FenceTracker, *stats.Run) {
	_, programs := vectorAddSetup(cfg, tiles)
	st := &stats.Run{}
	ft := core.NewFenceTracker(1)
	c := &OoOCore{send: send, nextID: new(uint64)}
	c.reset(0, cfg, geomOf(cfg), st, programs[0], ft)
	return c, ft, st
}

// TestOoOCoreWindowReplayUnderBackpressure drives the reservation
// station against a memory pipe that refuses every other send: window
// entries must be replayed on later cycles (never lost or duplicated)
// and the refusals must be accounted as issue stalls.
func TestOoOCoreWindowReplayUnderBackpressure(t *testing.T) {
	cfg := cpuConfig(config.PrimitiveOrderLight)
	seen := map[uint64]int{}
	deny := false
	var c *OoOCore
	c, ft, st := newTestCore(cfg, 2, func(r isa.Request) bool {
		deny = !deny
		if deny {
			return false
		}
		seen[r.ID]++
		return true
	})
	driveCore(t, c, ft)
	if st.IssueStallCycles == 0 {
		t.Error("backpressure produced no issue stalls")
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("request %d issued %d times; window replay duplicated it", id, n)
		}
	}
	wantPIM := 2 /*tiles*/ * 3 /*phases*/ * cfg.CommandsPerTile()
	wantOL := 2 * 3
	if len(seen) != wantPIM+wantOL {
		t.Fatalf("issued %d distinct requests, want %d", len(seen), wantPIM+wantOL)
	}
}

// TestOoOCoreFenceFlushUnderBackpressure covers the fence path: with
// the pipe refusing sends, dispatch must stall at the fence until the
// window flushes and every issued request is acknowledged, then retire
// it exactly once per fence.
func TestOoOCoreFenceFlushUnderBackpressure(t *testing.T) {
	cfg := cpuConfig(config.PrimitiveFence)
	deny := false
	var c *OoOCore
	c, ft, st := newTestCore(cfg, 2, func(r isa.Request) bool {
		deny = !deny
		return !deny
	})
	driveCore(t, c, ft)
	if st.FenceCount != 2*3 {
		t.Fatalf("FenceCount = %d, want 6", st.FenceCount)
	}
	if st.FenceStallCycles == 0 {
		t.Error("fences never stalled while the window was non-empty")
	}
}

// TestOoOCoreROBFill pins the reorder-buffer capacity stall: a 1-entry
// window forces dispatch to block on a full ROB every cycle the
// previous request has not issued yet.
func TestOoOCoreROBFill(t *testing.T) {
	cfg := cpuConfig(config.PrimitiveOrderLight)
	cfg.Host.ROBSize = 1
	c, ft, st := newTestCore(cfg, 1, func(r isa.Request) bool { return true })
	driveCore(t, c, ft)
	if st.IssueStallCycles == 0 {
		t.Error("1-entry ROB produced no fill stalls")
	}
	if c.w.state != warpDone {
		t.Error("program did not retire")
	}
}

// TestOoOCoreSkipPanicsWhenRunnable pins the quiescence-protocol
// contract: Skip on a core that could actually act (runnable PIM
// instruction, no fence, no credit stall) is a skip-ahead engine bug
// and must panic rather than silently corrupt stall accounting.
func TestOoOCoreSkipPanicsWhenRunnable(t *testing.T) {
	cfg := cpuConfig(config.PrimitiveOrderLight)
	c, _, _ := newTestCore(cfg, 1, func(r isa.Request) bool { return true })
	defer func() {
		if recover() == nil {
			t.Fatal("Skip on a runnable core did not panic")
		}
	}()
	c.Skip(3) // pc sits on the first PIM instruction: runnable
}

// TestOoOCoreSkipNoOps covers the legal no-op skips: zero cycles, and a
// finished core.
func TestOoOCoreSkipNoOps(t *testing.T) {
	cfg := cpuConfig(config.PrimitiveOrderLight)
	c, ft, st := newTestCore(cfg, 1, func(r isa.Request) bool { return true })
	c.Skip(0) // k <= 0: nothing, whatever the state
	driveCore(t, c, ft)
	c.Skip(100) // done core: nothing
	if st.FenceStallCycles != 0 || st.CreditStallCycles != 0 {
		t.Errorf("no-op skips credited stalls: fence %d credit %d", st.FenceStallCycles, st.CreditStallCycles)
	}
}

// TestOoOHostDropFaultRetiresPrimitivesEarly runs the full OoO machine
// with a full-rate ordering-drop plan: every fence (or OrderLight
// packet) must retire without draining, the plan must account each
// drop, and the run must stay live and verified-wrong (vector_add at
// this scale corrupts without ordering).
func TestOoOHostDropFaultRetiresPrimitivesEarly(t *testing.T) {
	for _, prim := range []config.Primitive{config.PrimitiveFence, config.PrimitiveOrderLight} {
		cfg := cpuConfig(prim)
		store, programs := vectorAddSetup(cfg, 8)
		m, err := NewMachine(cfg, store, programs)
		if err != nil {
			t.Fatal(err)
		}
		plan := fault.NewPlan(fault.Spec{Class: fault.ClassDropOrdering, Seed: 1, Rate: 1})
		m.SetFaultPlan(plan)
		st, err := m.Run()
		if err != nil {
			t.Fatalf("%v: %v", prim, err)
		}
		if plan.Injections() == 0 {
			t.Fatalf("%v: full-rate drop plan injected nothing", prim)
		}
		rep := plan.Report()
		if prim == config.PrimitiveFence {
			if st.FenceCount != 0 {
				t.Errorf("fence: %d fences retired normally under a full drop plan", st.FenceCount)
			}
			if rep.Points[fault.PointFenceDropped] == 0 {
				t.Error("fence: no fence-dropped injections recorded")
			}
		} else {
			if st.OLCount != 0 {
				t.Errorf("orderlight: %d packets sent under a full drop plan", st.OLCount)
			}
			if rep.Points[fault.PointOLDropped] == 0 {
				t.Error("orderlight: no ol-dropped injections recorded")
			}
		}
		if !st.Verified || st.Correct {
			t.Errorf("%v: dropped ordering still verified correct (verified=%t)", prim, st.Verified)
		}
	}
}
