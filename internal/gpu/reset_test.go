package gpu_test

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"orderlight/internal/config"
	"orderlight/internal/fault"
	"orderlight/internal/gpu"
	"orderlight/internal/isa"
	"orderlight/internal/kernel"
	"orderlight/internal/obs"
	"orderlight/internal/sim"
	"orderlight/internal/stats"
	"orderlight/internal/trace"
)

// resetCell is one step of the reset-versus-fresh sequence: a kernel
// cell and what the run arms on its machine.
type resetCell struct {
	prim     config.Primitive
	ts       string
	channels int
	cpu      bool    // OoO-CPU host (§9) instead of SIMT SMs
	deadline float64 // DeadlineMS override; the run fails when it is tiny
	traffic  gpu.HostTraffic
	fault    fault.Spec
	sink     bool
	sampler  bool
	tracer   bool
	dense    bool
	spec     *kernel.Spec // a fixed spec instead of a seeded Table 2 kernel
}

// fromTS is a kernel whose first command reads temporary storage it
// never loaded, so its result shows whether TS started zeroed.
var fromTS = kernel.Spec{
	Name: "from_ts", DataStructs: 1,
	Phases: []kernel.PhaseSpec{
		{Name: "bump ts", Kind: isa.KindPIMExec, Op: isa.OpAdd, Imm: 5, CmdsPerN: 1},
		{Name: "store a", Kind: isa.KindPIMStore, Vec: 0, CmdsPerN: 1},
	},
}

// resetSequence mixes every kind of state a run can leave behind:
// fence, OrderLight and seqno, all four TS sizes, host traffic (fine-
// and coarse-grained), two fault classes, a kernel that reads TS before
// loading it, sink, sampler and tracer
// armed on some cells and not the next, the dense engine, runs on SMs
// and on OoO-CPU cores that die at their deadline with requests and
// host loads in flight, and channel counts switching 16 -> 8 -> 16.
func resetSequence() []resetCell {
	// The host loads of every traffic cell hit the same two rows of
	// group 1, so tags a reset failed to clear would turn misses into
	// hits.
	fine := gpu.HostTraffic{PerChannel: 12, EveryN: 9, Group: 1, Rows: 2}
	coarse := gpu.HostTraffic{PerChannel: 6, EveryN: 5, Group: 1, Rows: 2, CoarseArbitration: true}
	return []resetCell{
		{prim: config.PrimitiveFence, ts: "1/16", channels: 16, sink: true},
		{prim: config.PrimitiveOrderLight, ts: "1/8", channels: 16, sink: true, tracer: true},
		{prim: config.PrimitiveSeqno, ts: "1/4", channels: 16},
		{prim: config.PrimitiveOrderLight, ts: "1/2", channels: 16, sink: true, traffic: fine},
		{prim: config.PrimitiveFence, ts: "1/8", channels: 16, sink: true,
			fault: fault.Spec{Class: fault.ClassDelayVisibility, Seed: 7, Rate: 0.3}},
		{prim: config.PrimitiveOrderLight, ts: "1/8", channels: 16, spec: &fromTS},
		{prim: config.PrimitiveOrderLight, ts: "1/16", channels: 8, sampler: true},
		{prim: config.PrimitiveOrderLight, ts: "1/4", channels: 8, deadline: 0.0001, sink: true, traffic: fine},
		{prim: config.PrimitiveFence, ts: "1/2", channels: 8, dense: true, sink: true},
		{prim: config.PrimitiveOrderLight, ts: "1/8", channels: 16, cpu: true, deadline: 0.0001},
		{prim: config.PrimitiveOrderLight, ts: "1/8", channels: 16, cpu: true, sink: true},
		{prim: config.PrimitiveSeqno, ts: "1/16", channels: 16, sink: true, traffic: coarse},
		{prim: config.PrimitiveOrderLight, ts: "1/4", channels: 16,
			fault: fault.Spec{Class: fault.ClassDropOrdering, Seed: 3, Rate: 0.5}},
		{prim: config.PrimitiveOrderLight, ts: "1/8", channels: 16, sink: true},
	}
}

// resetOutcome is what a cell's run shows besides its final image: the
// statistics as JSON, the event stream, and what the armed observers
// and host traffic recorded.
type resetOutcome struct {
	err      string
	stats    string
	events   []obs.Event
	samples  []stats.Sample
	traced   int64
	hostLat  float64
	hostSeen int64
	faults   fault.Report
}

// observers are the sink, sampler and tracer one run armed, kept so a
// later cell can check that nothing still writes to them.
type observers struct {
	sink    *obs.CollectSink
	sampler *stats.Sampler
	tracer  *trace.Tracer
}

func (o observers) counts() [3]int64 {
	var n [3]int64
	if o.sink != nil {
		n[0] = int64(len(o.sink.Events()))
	}
	if o.sampler != nil {
		n[1] = int64(len(o.sampler.Samples()))
	}
	if o.tracer != nil {
		n[2] = o.tracer.Total()
	}
	return n
}

// runResetCell arms m for c, runs it and records the outcome.
func runResetCell(t *testing.T, m *gpu.Machine, c resetCell) (resetOutcome, observers) {
	t.Helper()
	var o observers
	if c.sink {
		o.sink = &obs.CollectSink{}
		m.SetSink(o.sink)
	}
	if c.sampler {
		o.sampler = stats.NewSampler(64)
		m.SetSampler(o.sampler)
	}
	if c.tracer {
		o.tracer = trace.New(1 << 12)
		m.SetTracer(o.tracer)
	}
	var plan *fault.Plan
	if c.fault.Active() {
		plan = fault.NewPlan(c.fault)
		m.SetFaultPlan(plan)
	}
	if c.traffic.PerChannel > 0 {
		m.SetHostTraffic(c.traffic)
	}
	if c.dense {
		m.SetDense(true)
	}
	st, err := m.Run()
	var out resetOutcome
	if err != nil {
		out.err = err.Error()
	}
	js, jerr := json.Marshal(st)
	if jerr != nil {
		t.Fatal(jerr)
	}
	out.stats = string(js)
	out.hostLat, out.hostSeen = m.HostLatency()
	if o.sink != nil {
		out.events = o.sink.Events()
	}
	if o.sampler != nil {
		out.samples = o.sampler.Samples()
	}
	if o.tracer != nil {
		out.traced = o.tracer.Total()
	}
	if plan != nil {
		out.faults = plan.Report()
	}
	return out, o
}

// TestResetMatchesFresh runs one machine, Reset between cells, through
// the sequence and requires every cell to match a machine NewMachine
// builds for it alone. It is the guard against run state that lives
// outside construction: anything Reset forgets to rebuild or disarm
// shows up as a differing cell.
func TestResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	names := kernel.Names()
	reused := new(gpu.Machine)
	var (
		prev       observers
		prevCounts [3]int64
	)
	for i, c := range resetSequence() {
		cfg := config.Default()
		cfg.Run.Primitive = c.prim
		cfg.Memory.Channels = c.channels
		cfg.GPU.PIMSMs = c.channels / cfg.GPU.WarpsPerSM
		if c.cpu {
			cfg.Host.Kind = config.HostCPU
		}
		if c.deadline > 0 {
			cfg.Run.DeadlineMS = c.deadline
		}
		cfg = cfg.WithTSFraction(c.ts)
		spec, err := kernel.ByName(names[rng.Intn(len(names))])
		if err != nil {
			t.Fatal(err)
		}
		if c.spec != nil {
			spec = *c.spec
		}
		bytes := int64(16<<10 + 512*rng.Intn(16))
		build := func() *kernel.Kernel {
			k, err := kernel.Build(cfg, spec, bytes)
			if err != nil {
				t.Fatal(err)
			}
			return k
		}

		kr, kf := build(), build()
		if err := reused.Reset(cfg, kr.Store, kr.Programs); err != nil {
			t.Fatalf("cell %d: Reset: %v", i, err)
		}
		got, obsv := runResetCell(t, reused, c)
		fresh, err := gpu.NewMachine(cfg, kf.Store, kf.Programs)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := runResetCell(t, fresh, c)

		name := spec.Name + "/" + c.prim.String() + "/ts=" + c.ts
		if (c.deadline > 0) != (want.err != "") {
			t.Fatalf("cell %d (%s): fresh run error %q does not fit the cell", i, name, want.err)
		}
		if got.err != want.err {
			t.Fatalf("cell %d (%s): reused run error %q, fresh %q", i, name, got.err, want.err)
		}
		if got.stats != want.stats {
			t.Fatalf("cell %d (%s): statistics differ\nreused %s\nfresh  %s", i, name, got.stats, want.stats)
		}
		if !kr.Store.Equal(kf.Store) {
			t.Fatalf("cell %d (%s): final images differ at %v", i, name, kr.Store.Diff(kf.Store, 8))
		}
		if !reflect.DeepEqual(got.events, want.events) {
			t.Fatalf("cell %d (%s): event streams differ (%d vs %d events)", i, name, len(got.events), len(want.events))
		}
		if !reflect.DeepEqual(got.samples, want.samples) || got.traced != want.traced ||
			got.hostLat != want.hostLat || got.hostSeen != want.hostSeen || got.faults != want.faults {
			t.Fatalf("cell %d (%s): observers or host traffic differ: reused %+v, fresh %+v", i, name,
				[]any{len(got.samples), got.traced, got.hostLat, got.hostSeen, got.faults},
				[]any{len(want.samples), want.traced, want.hostLat, want.hostSeen, want.faults})
		}
		if c.sink && len(got.events) == 0 || c.traffic.PerChannel > 0 && got.err == "" && got.hostSeen == 0 {
			t.Fatalf("cell %d (%s): an armed sink or host traffic recorded nothing", i, name)
		}
		if c.deadline > 0 && !strings.Contains(got.err, sim.ErrDeadline.Error()) {
			t.Fatalf("cell %d (%s): the deadline cell ended with %q", i, name, got.err)
		}
		// Reset disarmed the previous cell's observers: nothing this
		// cell did on the reused machine may reach them.
		if n := prev.counts(); n != prevCounts {
			t.Fatalf("cell %d (%s): cell %d's sink, sampler or tracer still records (%v -> %v)", i, name, i-1, prevCounts, n)
		}
		prev, prevCounts = obsv, obsv.counts()
	}
}

// TestResetAllocs gates what reuse saves: resetting a warm machine for
// a run of the same geometry allocates only the run's fresh statistics
// record and its map. Everything else is rebuilt in place.
func TestResetAllocs(t *testing.T) {
	for _, prim := range []config.Primitive{config.PrimitiveFence, config.PrimitiveOrderLight, config.PrimitiveSeqno} {
		cfg := config.Default()
		cfg.Run.Primitive = prim
		spec, err := kernel.ByName("daxpy")
		if err != nil {
			t.Fatal(err)
		}
		k, err := kernel.Build(cfg, spec, 32<<10)
		if err != nil {
			t.Fatal(err)
		}
		m, err := gpu.NewMachine(cfg, k.Store, k.Programs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(20, func() {
			if err := m.Reset(cfg, k.Store, k.Programs); err != nil {
				t.Fatal(err)
			}
		})
		if n > 2 {
			t.Fatalf("%v: Reset of a warm machine allocated %.1f/op, want at most 2 (stats.Run and its map)", prim, n)
		}
	}
}
