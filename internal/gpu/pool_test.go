package gpu

import (
	"testing"

	"orderlight/internal/config"
)

// TestPoolReusesOnlyCleanMachines: Release hands a machine that ran to
// completion back to Acquire, and drops one whose run failed.
func TestPoolReusesOnlyCleanMachines(t *testing.T) {
	machines.Lock()
	machines.free = nil
	machines.Unlock()

	cfg := smallConfig(config.PrimitiveOrderLight)
	store, programs := vectorAddSetup(cfg, 4)
	m, err := Acquire(cfg, store, programs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	m.Release()
	if m.store != nil || m.st != nil || m.programs != nil {
		t.Fatal("a released machine still references its caller's store, statistics or programs")
	}

	short := cfg
	short.Run.DeadlineMS = 0.0001
	store, programs = vectorAddSetup(short, 4)
	again, err := Acquire(short, store, programs)
	if err != nil {
		t.Fatal(err)
	}
	if again != m {
		t.Fatal("Acquire built a new machine while a released one was idle")
	}
	if _, err := again.Run(); err == nil {
		t.Fatal("the short run met its deadline")
	}
	again.Release()
	machines.Lock()
	n := len(machines.free)
	machines.Unlock()
	if n != 0 {
		t.Fatal("a machine whose run failed went back to the pool")
	}
}
