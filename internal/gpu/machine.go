package gpu

import (
	"fmt"
	"runtime"
	"sync"

	"orderlight/internal/cache"
	"orderlight/internal/config"
	"orderlight/internal/core"
	"orderlight/internal/dram"
	"orderlight/internal/fault"
	"orderlight/internal/isa"
	"orderlight/internal/memctrl"
	"orderlight/internal/noc"
	"orderlight/internal/obs"
	"orderlight/internal/olerrors"
	"orderlight/internal/pim"
	"orderlight/internal/sim"
	"orderlight/internal/stats"
	"orderlight/internal/trace"
)

// Machine assembles the full simulated system of Figure 6: PIM-kernel
// SMs, per-channel interconnect pipes, L2 slices with sub-partitions,
// L2-to-DRAM pipes, and memory controllers with PIM units. It owns the
// dual-clock engine and the completion/verification logic.
//
// A machine is reusable: Reset rebuilds it for a new run in the
// buffers of the last one, and NewMachine is a Reset of a zero
// Machine. Acquire and Release keep reset machines in a process-wide
// pool.
type Machine struct {
	cfg      config.Config
	geom     dram.Geometry
	st       *stats.Run
	eng      *sim.Engine
	store    *dram.Store
	initial  *dram.Store // replayed into the reference image by Verify
	replayed bool        // initial already holds the reference image
	programs []Program
	ref      pim.Unit // Verify's reference executor
	dirty    bool     // a Run started and has not completed cleanly

	hosts  []host
	sms    []*SM       // SIMT front ends built so far, reused by Reset
	cores  []*OoOCore  // OoO front ends built so far, reused by Reset
	icnt   []*noc.Link // SM -> L2 interconnect, one per channel
	slices []*cache.Slice
	l2dram []*sim.Pipe[isa.Request] // L2 -> DRAM scheduler, one per channel
	mcs    []*memctrl.Controller
	acks   *sim.Pipe[int] // issued-to-DRAM acknowledgments (warp ids)
	ft     *core.FenceTracker
	nextID uint64
	seen   []bool // Reset's scratch: channels that already have a program

	tracer  *trace.Tracer  // optional; see SetTracer
	sink    obs.Sink       // optional; see SetSink
	sampler *stats.Sampler // optional; see SetSampler
	fplan   *fault.Plan    // optional; see SetFaultPlan

	abort func() bool // cooperative abort poll; see SetAbort

	host        HostTraffic
	hostRng     sim.Rand
	hostLeft    []int // per channel, requests still to inject
	hostPending int   // injected but not yet serviced
	hostSent    map[uint64]sim.Time
	hostLatency sim.Time
	hostServed  int64
	hostHeld    []heldHost // CGA: loads waiting for the PIM kernel to finish
}

// heldHost is a host load blocked by coarse-grained arbitration.
type heldHost struct {
	ch      int
	desired sim.Time // when it wanted to issue
}

// HostTraffic describes synthetic concurrent host accesses injected
// alongside the PIM kernel — the fine-grained-arbitration scenario of
// §3.4: the memory controller interleaves host loads with PIM commands
// instead of blocking the host for the whole PIM computation.
type HostTraffic struct {
	PerChannel int // host loads to inject per channel (0 disables)
	EveryN     int // injection period in core cycles
	Group      int // memory-group the loads target
	Rows       int // row span the loads are scattered over

	// CoarseArbitration models the CGO/CGA class of §3.2: the host may
	// not touch memory while the PIM computation runs, so every host
	// load queues at the core until the PIM kernel drains. Latency is
	// still measured from the moment the load *wanted* to issue, which
	// is exactly the QoS damage the taxonomy discussion describes.
	CoarseArbitration bool
}

// NewMachine builds the machine. The store holds the initial memory
// image; it is mutated by the run. Each program drives one distinct
// channel. It is a Reset of a zero Machine.
func NewMachine(cfg config.Config, store *dram.Store, programs []Program) (*Machine, error) {
	m := new(Machine)
	if err := m.Reset(cfg, store, programs); err != nil {
		return nil, err
	}
	return m, nil
}

// machines is the process-wide pool behind Acquire and Release: a
// free list of at most GOMAXPROCS idle machines. It is not a
// sync.Pool, whose per-P slots miss whenever a cell's goroutine runs on
// another P than the last one's and which every GC empties, so most
// cells would build afresh.
var machines struct {
	sync.Mutex
	free []*Machine
}

// Acquire returns a pooled machine Reset for the given run: the same
// machine NewMachine would build, in the buffers of an earlier one.
// Hand it back with Release once nothing reads it any more.
func Acquire(cfg config.Config, store *dram.Store, programs []Program) (*Machine, error) {
	var m *Machine
	machines.Lock()
	if n := len(machines.free); n > 0 {
		m = machines.free[n-1]
		machines.free[n-1] = nil
		machines.free = machines.free[:n-1]
	}
	machines.Unlock()
	if m == nil {
		m = new(Machine)
	}
	if err := m.Reset(cfg, store, programs); err != nil {
		return nil, err
	}
	return m, nil
}

// Release returns m to the pool behind Acquire. The caller must not use
// m, or anything read from its internals, afterwards; the statistics
// and the store stay the caller's. A machine whose Run failed,
// panicked or never finished is dropped instead: only a machine known
// to be in a clean state is reused.
func (m *Machine) Release() {
	if m.dirty {
		return
	}
	// Drop every reference to the caller's data, so an idle machine in
	// the pool keeps no image or program alive.
	m.st, m.store, m.programs = nil, nil, nil
	m.tracer, m.sink, m.sampler, m.fplan, m.abort = nil, nil, nil, nil, nil
	m.initial.Release()
	for ch, mc := range m.mcs {
		mc.Unit().Reset(ch, 0, m.initial)
	}
	for _, sm := range m.sms {
		for _, w := range sm.warps[:cap(sm.warps)] {
			if w != nil {
				w.prog = nil
			}
		}
	}
	for _, c := range m.cores {
		c.w.prog = nil
	}
	machines.Lock()
	if len(machines.free) < runtime.GOMAXPROCS(0) {
		machines.free = append(machines.free, m)
	}
	machines.Unlock()
}

// validate checks a run's inputs against the configuration before Reset
// changes anything, and returns the run's geometry.
func (m *Machine) validate(cfg config.Config, store *dram.Store, programs []Program) (dram.Geometry, error) {
	if err := cfg.Validate(); err != nil {
		return dram.Geometry{}, err
	}
	if cfg.Host.Kind != config.HostCPU && len(programs) > cfg.GPU.PIMSMs*cfg.GPU.WarpsPerSM {
		return dram.Geometry{}, fmt.Errorf("gpu: %d programs exceed %d PIM warps", len(programs), cfg.GPU.PIMSMs*cfg.GPU.WarpsPerSM)
	}
	m.seen = sim.Resize(m.seen, cfg.Memory.Channels)
	clear(m.seen)
	for _, p := range programs {
		if p.Channel < 0 || p.Channel >= cfg.Memory.Channels {
			return dram.Geometry{}, fmt.Errorf("gpu: program channel %d out of range", p.Channel)
		}
		if m.seen[p.Channel] {
			return dram.Geometry{}, fmt.Errorf("gpu: two programs drive channel %d (one warp per PIM unit, §5.4)", p.Channel)
		}
		m.seen[p.Channel] = true
		for i, in := range p.Instrs {
			if in.Group < 0 || in.Group >= cfg.Memory.GroupsPerChannel {
				return dram.Geometry{}, fmt.Errorf("gpu: channel %d instruction %d (%v) names memory-group %d, config has %d",
					p.Channel, i, in, in.Group, cfg.Memory.GroupsPerChannel)
			}
			for _, g := range in.XGroups {
				if int(g) >= cfg.Memory.GroupsPerChannel {
					return dram.Geometry{}, fmt.Errorf("gpu: channel %d instruction %d (%v) orders extension memory-group %d, config has %d",
						p.Channel, i, in, g, cfg.Memory.GroupsPerChannel)
				}
			}
		}
	}
	geom := geometry(cfg)
	if store.Lanes() != geom.LanesPerSlot {
		return dram.Geometry{}, fmt.Errorf("gpu: store has %d lanes per slot, geometry needs %d", store.Lanes(), geom.LanesPerSlot)
	}
	return geom, nil
}

// geometry is the slot geometry of a configuration.
func geometry(cfg config.Config) dram.Geometry {
	return dram.NewGeometry(cfg.Memory.Channels, cfg.Memory.BanksPerChannel,
		cfg.Memory.RowBufferBytes, cfg.Memory.BusWidthBytes,
		cfg.Memory.GroupsPerChannel, cfg.PIM.BMF)
}

// Reset rebuilds the machine for a new run, exactly as NewMachine
// would, reusing the queues, pipes, links, tag arrays, trackers, PIM
// units and clock engine of the previous run where their sizes allow.
// The run gets a fresh statistics record. Everything the previous run
// armed is disarmed: tracer, sink, sampler, fault plan, abort poll,
// host traffic and dense mode. Invalid inputs are rejected before
// anything changes.
func (m *Machine) Reset(cfg config.Config, store *dram.Store, programs []Program) error {
	geom, err := m.validate(cfg, store, programs)
	if err != nil {
		return err
	}
	m.cfg, m.geom, m.store, m.programs = cfg, geom, store, programs
	m.st = stats.New(cfg.BytesPerCommand())
	if m.initial == nil {
		m.initial = new(dram.Store)
	}
	store.CloneInto(m.initial)
	m.replayed, m.dirty, m.nextID = false, false, 0
	if m.ft == nil {
		m.ft = new(core.FenceTracker)
		m.acks = new(sim.Pipe[int])
	}
	m.ft.Reset(len(programs))
	m.acks.Reset(sim.Time(cfg.GPU.AckLatency)*sim.CoreTicks, 0)

	// Memory-side plumbing, one lane per channel.
	nch := cfg.Memory.Channels
	tagLines := cfg.GPU.L2SizeMB << 20 / nch / cfg.Memory.BusWidthBytes
	m.icnt, m.slices = sim.Resize(m.icnt, nch), sim.Resize(m.slices, nch)
	m.l2dram, m.mcs = sim.Resize(m.l2dram, nch), sim.Resize(m.mcs, nch)
	for ch := 0; ch < nch; ch++ {
		if m.icnt[ch] == nil {
			m.icnt[ch] = new(noc.Link)
			m.slices[ch] = new(cache.Slice)
			m.slices[ch].OnHostHit = func(r isa.Request) { m.completeHost(r) }
			m.l2dram[ch] = new(sim.Pipe[isa.Request])
			m.mcs[ch] = new(memctrl.Controller)
			m.mcs[ch].OnIssue = m.onIssue
		}
		m.icnt[ch].Reset(cfg.GPU.IcntRoutes, sim.Time(cfg.GPU.InterconnectToL2)*sim.CoreTicks, 64/cfg.GPU.IcntRoutes+1)
		m.slices[ch].Reset(ch, geom, cfg.GPU.L2SubPartitions, tagLines)
		m.l2dram[ch].Reset(sim.Time(cfg.GPU.L2ToDRAM)*sim.CoreTicks, cfg.GPU.L2QueueSize)
		m.mcs[ch].Reset(ch, cfg, geom, store, m.st)
	}

	// Build the host front end: SIMT SMs (warps distributed WarpsPerSM
	// per SM) or one OoO CPU core per channel program (§9 extension).
	m.hosts = m.hosts[:0]
	switch cfg.Host.Kind {
	case config.HostCPU:
		m.cores = sim.Resize(m.cores, max(len(m.cores), len(programs)))
		for i, p := range programs {
			if m.cores[i] == nil {
				m.cores[i] = &OoOCore{send: m.send, nextID: &m.nextID}
			}
			m.cores[i].reset(i, cfg, geom, m.st, p, m.ft)
			m.hosts = append(m.hosts, m.cores[i])
		}
	default:
		warpsPerSM := cfg.GPU.WarpsPerSM
		nsm := (len(programs) + warpsPerSM - 1) / warpsPerSM
		m.sms = sim.Resize(m.sms, max(len(m.sms), nsm))
		for smID := 0; smID < nsm; smID++ {
			if m.sms[smID] == nil {
				m.sms[smID] = &SM{send: m.send, nextID: &m.nextID}
			}
			sm := m.sms[smID]
			sm.reset(smID, cfg, geom, m.st, m.ft)
			for wi := smID * warpsPerSM; wi < (smID+1)*warpsPerSM && wi < len(programs); wi++ {
				sm.addWarp(wi, programs[wi])
			}
			m.hosts = append(m.hosts, sm)
		}
	}

	if m.eng == nil {
		m.eng = sim.NewEngine()
		m.eng.AddClock("core", sim.CoreTicks).Register(coreDomain{m})
		m.eng.AddClock("mem", sim.MemTicks).Register(memDomain{m})
	}
	m.eng.Reset()

	m.tracer, m.sink, m.sampler, m.fplan, m.abort = nil, nil, nil, nil, nil
	m.host, m.hostRng = HostTraffic{}, sim.Rand{}
	m.hostLeft, m.hostHeld = m.hostLeft[:0], m.hostHeld[:0]
	m.hostPending, m.hostLatency, m.hostServed = 0, 0, 0
	clear(m.hostSent)
	return nil
}

// coreDomain adapts the machine's core-clock tick to sim.Worker and
// sim.Skipper so the engine can warp over provably idle core cycles.
type coreDomain struct{ m *Machine }

func (d coreDomain) Tick(int64) { d.m.coreTick() }

func (d coreDomain) NextWork(cycle int64) int64 { return d.m.coreNextWork(cycle) }

func (d coreDomain) Skip(n int64) {
	// Only the hosts accrue per-idle-cycle state (stall counters); the
	// transfer stages between pipes are stateless between edges.
	for _, h := range d.m.hosts {
		h.Skip(n)
	}
	d.m.emitSkip(obs.TrackClockCore, n, sim.CoreTicks)
}

// memDomain adapts the memory-clock tick to sim.Worker. Its Skip
// credits no state — controllers accrue per-cycle statistics
// (OLFlagBlocked) only in states their NextWork reports as work-now, so
// elided memory cycles are truly free of observable effects — but it
// does make the elision itself observable as a span on the mem-clock
// track when tracing is armed.
type memDomain struct{ m *Machine }

func (d memDomain) Tick(cycle int64) { d.m.memTick(cycle) }

func (d memDomain) NextWork(cycle int64) int64 { return d.m.memNextWork(cycle) }

func (d memDomain) Skip(n int64) { d.m.emitSkip(obs.TrackClockMem, n, sim.MemTicks) }

// emitSkip records a window of elided clock cycles as a credited span
// on the domain's clock track: the skip-ahead engine's jumps stay
// visible in the trace instead of reading as missing time. The engine
// warps time before firing the post-skip edge, so Now() is the edge
// after the window and the span covers the elided edges exactly.
func (m *Machine) emitSkip(kind string, n int64, period sim.Time) {
	if m.sink == nil || n <= 0 {
		return
	}
	dur := sim.Time(n) * period
	m.sink.Emit(obs.Event{
		Name: "skip", Track: obs.Track{Kind: kind},
		At: m.eng.Now() - dur, Dur: dur,
		Detail: fmt.Sprintf("%d cycles credited", n),
	})
}

// ceilCycle converts a base-tick instant to the first cycle of a clock
// with the given period whose edge is at or after it.
func ceilCycle(t, period sim.Time) int64 {
	return int64((t + period - 1) / period)
}

// coreNextWork is the core domain's quiescence hint with the sampling
// deadline folded in: an armed sampler's next due cycle counts as work,
// so skip-ahead can never warp past a sample point and the time-series
// cadence is byte-identical to a dense run.
func (m *Machine) coreNextWork(cycle int64) int64 {
	w := m.coreWorkHint(cycle)
	if m.sampler != nil {
		if sc := m.sampler.NextCycle(); sc < w {
			if sc < cycle {
				sc = cycle
			}
			return sc
		}
	}
	return w
}

// coreWorkHint is the core domain's raw quiescence hint: the earliest
// core cycle at which coreTick could change anything. Host-traffic runs
// stay dense — injection cadence and coarse-arbitration release depend
// on cross-domain drain state that is cheaper to tick through than to
// predict.
func (m *Machine) coreWorkHint(cycle int64) int64 {
	if m.host.PerChannel != 0 {
		return cycle
	}
	edge := sim.Time(cycle) * sim.CoreTicks
	next := sim.TimeInf
	if t := m.acks.NextReady(); t <= edge {
		return cycle
	} else if t < next {
		next = t
	}
	for ch := range m.icnt {
		if m.slices[ch].Pending() > 0 {
			return cycle // slice drains toward the L2-DRAM pipe each cycle
		}
		if t := m.icnt[ch].NextReady(); t <= edge {
			return cycle
		} else if t < next {
			next = t
		}
	}
	for _, h := range m.hosts {
		t := h.NextWork(edge)
		if t <= edge {
			return cycle
		}
		if t < next {
			next = t
		}
	}
	if next == sim.TimeInf {
		return sim.NoWork
	}
	return ceilCycle(next, sim.CoreTicks)
}

// memNextWork is the memory domain's quiescence hint: the earliest
// memory cycle at which memTick could change anything — an L2-to-DRAM
// arrival, or controller work (dequeue slots, DRAM-timing wake-ups,
// refresh deadlines).
func (m *Machine) memNextWork(cycle int64) int64 {
	edge := sim.Time(cycle) * sim.MemTicks
	next := sim.NoWork
	for ch := range m.mcs {
		if t := m.l2dram[ch].NextReady(); t <= edge {
			return cycle
		} else if t != sim.TimeInf {
			if w := ceilCycle(t, sim.MemTicks); w < next {
				next = w
			}
		}
		w := m.mcs[ch].NextWork(cycle)
		if w <= cycle {
			return cycle
		}
		if w < next {
			next = w
		}
	}
	return next
}

// SetDense forces the naive dense engine for this machine: every clock
// edge fires even when all components are quiescent. Results are
// byte-identical either way; the dense engine is the parity reference
// and the escape hatch when debugging a suspect quiescence hint.
func (m *Machine) SetDense(d bool) { m.eng.SetDense(d) }

// Stats exposes the run's statistics accumulator.
func (m *Machine) Stats() *stats.Run { return m.st }

// SetTracer arms stage tracing for the run: every request's crossings of
// the memory pipe's measurement points are recorded. Must be called
// before Run.
func (m *Machine) SetTracer(t *trace.Tracer) { m.tracer = t }

// SetSink arms streaming event export for the run: stage crossings,
// DRAM commands, PIM command issues, warp fence/OrderLight stall spans,
// and skip-ahead credit spans flow to the sink as they happen. Must be
// called before Run. The SIMT host emits warp-track spans; the OoO-CPU
// host of §9 contributes only the shared memory-side events.
func (m *Machine) SetSink(s obs.Sink) {
	m.sink = s
	for _, h := range m.hosts {
		if sm, ok := h.(*SM); ok {
			sm.sink = s
		}
	}
	for _, mc := range m.mcs {
		mc.Sink = s
	}
}

// SetFaultPlan arms a seeded ordering-fault injection plan for the run,
// threading it through every host front end (SM or OoO core: dropped
// primitives) and memory controller (weakened drains, illegal reorders,
// delayed PIM visibility). Must be called before Run; the plan belongs
// to exactly one machine. Plan decisions are stateless hashes, so a
// faulted run is exactly as deterministic — and as engine-independent —
// as an unfaulted one.
func (m *Machine) SetFaultPlan(p *fault.Plan) {
	m.fplan = p
	for _, h := range m.hosts {
		switch h := h.(type) {
		case *SM:
			h.fault = p
		case *OoOCore:
			h.fault = p
		}
	}
	for _, mc := range m.mcs {
		mc.Fault = p
	}
}

// SetSampler arms periodic counter sampling for the run, binding the
// sampler to this machine's statistics and in-flight-request gauge.
// Must be called before Run.
func (m *Machine) SetSampler(s *stats.Sampler) {
	m.sampler = s
	s.Bind(m.st, m.memPending)
}

// memPending gauges the requests in flight anywhere in the memory
// system: interconnect, L2 slices, L2-to-DRAM pipes, controllers, and
// the acknowledgment path.
func (m *Machine) memPending() int {
	n := m.acks.Len()
	for ch := range m.icnt {
		n += m.icnt[ch].Len() + m.slices[ch].Pending() +
			m.l2dram[ch].Len() + m.mcs[ch].Pending()
	}
	return n
}

// record traces one stage crossing if tracing is armed.
func (m *Machine) record(stage trace.Stage, r isa.Request) {
	if m.tracer != nil {
		m.tracer.Record(m.eng.Now(), stage, r)
	}
	if m.sink != nil {
		m.sink.Emit(obs.Event{
			Name:   stage.String(),
			Track:  stageTrack(stage, r),
			At:     m.eng.Now(),
			Detail: fmt.Sprintf("#%d %v ch%d g%d", r.ID, r.Kind, r.Channel, r.Group),
		})
	}
}

// stageTrack maps a stage crossing to its component track: injection on
// the issuing SM, the interconnect-to-DRAM path stages on the channel's
// L2 track, controller acceptance and device issue on the MC track.
func stageTrack(stage trace.Stage, r isa.Request) obs.Track {
	switch stage {
	case trace.StageInject:
		return obs.Track{Kind: "sm", ID: int(r.SM)}
	case trace.StageL2, trace.StageToDRAM:
		return obs.Track{Kind: "l2", ID: int(r.Channel)}
	default:
		return obs.Track{Kind: "mc", ID: int(r.Channel)}
	}
}

// SetHostTraffic arms synthetic host-load injection for the run. Must be
// called before Run.
func (m *Machine) SetHostTraffic(ht HostTraffic) {
	m.host = ht
	m.hostRng = *sim.NewRand(m.cfg.Run.Seed ^ 0x4057_1a21)
	m.hostLeft = sim.Resize(m.hostLeft, m.cfg.Memory.Channels)
	for ch := range m.hostLeft {
		m.hostLeft[ch] = ht.PerChannel
	}
	if m.hostSent == nil {
		m.hostSent = make(map[uint64]sim.Time)
	}
}

// HostLatency returns the mean core-to-DRAM-issue latency of serviced
// host loads, in core cycles, and how many were serviced.
func (m *Machine) HostLatency() (float64, int64) {
	if m.hostServed == 0 {
		return 0, 0
	}
	return float64(m.hostLatency) / float64(m.hostServed) / float64(sim.CoreTicks), m.hostServed
}

// injectHost pushes due host loads into the interconnect. Under
// coarse-grained arbitration they are held at the core until the PIM
// kernel drains.
func (m *Machine) injectHost() {
	if m.host.PerChannel == 0 {
		return
	}
	now := m.eng.Now()
	// CGA backlog drains once the PIM kernel (and its pipe) is idle.
	hostProbe := isa.Request{Kind: isa.KindHostLoad}
	if len(m.hostHeld) > 0 && m.pimIdle() {
		kept := m.hostHeld[:0]
		for _, h := range m.hostHeld {
			if m.icnt[h.ch].CanPush(hostProbe) {
				m.pushHostLoad(h.ch, now, h.desired)
			} else {
				kept = append(kept, h)
			}
		}
		m.hostHeld = kept
	}
	every := m.host.EveryN
	if every <= 0 {
		every = 1
	}
	if now.CoreCycles()%int64(every) != 0 {
		return
	}
	for ch := range m.hostLeft {
		if m.hostLeft[ch] == 0 {
			continue
		}
		if m.host.CoarseArbitration && !m.pimIdle() {
			m.hostHeld = append(m.hostHeld, heldHost{ch: ch, desired: now})
			m.hostLeft[ch]--
			continue
		}
		if !m.icnt[ch].CanPush(hostProbe) {
			continue
		}
		m.pushHostLoad(ch, now, now)
		m.hostLeft[ch]--
	}
}

// pimIdle reports whether every PIM warp has retired and the memory
// system holds no PIM work (the CGA release condition).
func (m *Machine) pimIdle() bool {
	for _, h := range m.hosts {
		if !h.Done() {
			return false
		}
	}
	for ch := range m.mcs {
		if m.mcs[ch].Pending() > 0 || m.icnt[ch].Len() > 0 ||
			m.slices[ch].Pending() > 0 || m.l2dram[ch].Len() > 0 {
			return false
		}
	}
	return true
}

// pushHostLoad materializes and injects one synthetic host load; its
// latency clock starts at `desired`.
func (m *Machine) pushHostLoad(ch int, now, desired sim.Time) {
	rows := m.host.Rows
	if rows <= 0 {
		rows = 64
	}
	bank := m.host.Group * m.cfg.BanksPerGroup()
	m.nextID++
	addr := m.geom.Encode(dram.Loc{
		Channel: ch, Bank: bank,
		Row: 1024 + m.hostRng.Intn(rows), // away from PIM data
		Col: m.hostRng.Intn(m.geom.SlotsPerRow),
	})
	loc := m.geom.Decode(addr)
	r := isa.Request{
		ID: m.nextID, Kind: isa.KindHostLoad, Addr: addr,
		Channel: uint8(ch), Group: uint8(m.geom.GroupOf(loc.Bank)), Bank: uint8(loc.Bank), Row: int32(loc.Row),
		Warp: -1,
	}
	m.icnt[ch].Push(now, r)
	m.hostSent[r.ID] = desired
	m.hostPending++
}

// Controller exposes a channel's memory controller (for tests/tracing).
func (m *Machine) Controller(ch int) *memctrl.Controller { return m.mcs[ch] }

// send pushes a request from an SM into its channel's interconnect.
func (m *Machine) send(r isa.Request) bool {
	l := m.icnt[r.Channel]
	if !l.CanPush(r) {
		return false
	}
	l.Push(m.eng.Now(), r)
	m.record(trace.StageInject, r)
	return true
}

// onIssue is called by a memory controller when a request issues to the
// device; it starts the acknowledgment on its way back to the SM, or
// completes a host load's latency measurement.
func (m *Machine) onIssue(r isa.Request) {
	m.record(trace.StageDevice, r)
	if r.Kind.IsPIM() {
		m.acks.Push(m.eng.Now(), int(r.Warp))
		return
	}
	m.completeHost(r)
}

// completeHost finishes one injected host load (at the L2 on a hit, or
// at the memory controller on a miss).
func (m *Machine) completeHost(r isa.Request) {
	if sent, ok := m.hostSent[r.ID]; ok {
		m.hostLatency += m.eng.Now() - sent
		m.hostServed++
		m.hostPending--
		delete(m.hostSent, r.ID)
	}
}

// coreTick advances everything in the 1200 MHz core domain.
func (m *Machine) coreTick() {
	now := m.eng.Now()
	if m.sampler != nil {
		m.sampler.ObserveCycle(now)
	}
	m.injectHost()
	// Acknowledgments reach the fence trackers.
	for {
		w, ok := m.acks.Pop(now)
		if !ok {
			break
		}
		m.ft.Acked(w)
	}
	// Interconnect -> L2 slice (one per channel per cycle).
	for ch := range m.icnt {
		if r := m.icnt[ch].Peek(now); r != nil && m.slices[ch].CanAccept(*r) {
			r, _ := m.icnt[ch].Pop(now)
			m.slices[ch].Accept(r)
			m.record(trace.StageL2, r)
		}
	}
	// L2 slice -> L2-to-DRAM pipe (one per channel per cycle).
	for ch := range m.slices {
		if !m.l2dram[ch].CanPush() {
			continue
		}
		if r, ok := m.slices[ch].Pop(); ok {
			m.l2dram[ch].Push(now, r)
			m.record(trace.StageToDRAM, r)
		}
	}
	// Hosts issue last so a request needs a full cycle to reach the pipes.
	for _, h := range m.hosts {
		h.Tick(now)
	}
}

// memTick advances the 850 MHz memory domain.
func (m *Machine) memTick(cycle int64) {
	now := m.eng.Now()
	for ch, mc := range m.mcs {
		if r := m.l2dram[ch].Head(now); r != nil && mc.CanAccept(*r) {
			r, _ := m.l2dram[ch].Pop(now)
			mc.Accept(r)
			m.record(trace.StageMC, r)
		}
		mc.Tick(cycle)
	}
}

// done reports whether the whole machine has drained.
func (m *Machine) done() bool {
	for _, h := range m.hosts {
		if !h.Done() {
			return false
		}
	}
	for ch := range m.icnt {
		if m.icnt[ch].Len() > 0 || m.slices[ch].Pending() > 0 ||
			m.l2dram[ch].Len() > 0 || m.mcs[ch].Pending() > 0 {
			return false
		}
	}
	if m.hostPending > 0 || len(m.hostHeld) > 0 {
		return false
	}
	for _, left := range m.hostLeft {
		if left > 0 {
			return false
		}
	}
	return m.acks.Len() == 0
}

// SetAbort arms a cooperative abort poll: fn is consulted between
// engine steps, at least every abortPollCycles core cycles of simulated
// time; when it reports true, Run returns wrapping olerrors.ErrAborted.
// The poll never warps simulation time, so an un-aborted run is
// byte-identical with or without it. Must be called before Run.
func (m *Machine) SetAbort(fn func() bool) { m.abort = fn }

// abortPollCycles bounds how much simulated time may pass between abort
// polls (in core cycles). Small enough that a wedged cell is caught
// promptly, large enough that window bookkeeping stays off the profile.
const abortPollCycles = 8192

// runWindowed drives the engine in bounded windows so the abort poll
// can run between steps. RunUntil never warps the clock to a window
// edge, so the event sequence — and therefore stats, traces and the
// final memory image — is byte-identical to an uninterrupted m.eng.Run
// on either engine.
func (m *Machine) runWindowed(deadline sim.Time) error {
	pollAt := m.eng.Now()
	for {
		// Advance the poll horizon from wherever the engine got to, so
		// an idle span still makes progress window over window.
		if now := m.eng.Now(); now > pollAt {
			pollAt = now
		}
		pollAt += abortPollCycles * sim.CoreTicks
		limit, capped := pollAt, false
		if limit >= deadline {
			limit, capped = deadline, true
		}
		finished, err := m.eng.RunUntil(m.done, limit)
		switch {
		case err != nil:
			return err
		case finished:
			return nil
		case capped:
			return m.eng.DeadlineError()
		}
		if m.abort() {
			return fmt.Errorf("gpu: %w (t=%v)", olerrors.ErrAborted, m.eng.Now())
		}
	}
}

// Run simulates until completion (or the configured deadline) and
// returns the statistics. When cfg.Run.Verify is set, the final memory
// image is checked against the reference executor's program-order
// result; a mismatch is recorded in the stats, not an error — it is the
// expected outcome of running without an ordering primitive.
//
// When an abort poll is armed the run is driven in windows (see
// runWindowed); otherwise it takes the plain engine path.
func (m *Machine) Run() (*stats.Run, error) {
	m.dirty = true
	deadline := sim.Time(m.cfg.Run.DeadlineMS / 1e3 * sim.BaseTickHz)
	m.st.Start = m.eng.Now()
	var err error
	if m.abort != nil {
		err = m.runWindowed(deadline)
	} else {
		err = m.eng.Run(m.done, deadline)
	}
	if err != nil {
		return m.st, err
	}
	m.st.End = m.eng.Now()
	if m.sampler != nil {
		m.sampler.Finish(m.eng.Now())
	}
	if m.cfg.Run.Verify {
		if err := m.Verify(); err != nil {
			return m.st, err
		}
	}
	m.dirty = false
	return m.st, nil
}

// Verify replays every program in order on the initial memory image and
// compares the result with the machine's final memory. The replay runs
// in place on the machine's private initial snapshot, which nothing else
// reads, so a later call compares against the image already replayed.
// A replay error comes from a malformed command, not from the data, so
// it recurs on every call.
func (m *Machine) Verify() error {
	if !m.replayed {
		if err := replay(&m.ref, m.cfg, m.geom, m.initial, m.programs); err != nil {
			return fmt.Errorf("gpu: reference replay failed: %w", err)
		}
		m.replayed = true
	}
	m.st.Verified = true
	m.st.Correct = m.store.Equal(m.initial)
	if !m.st.Correct {
		m.st.DiffSlots = len(m.store.Diff(m.initial, 1<<20))
	}
	return nil
}

// Replay runs every program, in program order, through the reference
// PIM executor over store, turning an initial image into the golden
// one. It is what Verify does, for callers without a machine.
func Replay(cfg config.Config, store *dram.Store, programs []Program) error {
	return replay(new(pim.Unit), cfg, geometry(cfg), store, programs)
}

// replay streams each program's requests into u, reset for that
// program's channel with zeroed temporary storage, without
// materializing the request sequence.
func replay(u *pim.Unit, cfg config.Config, geom dram.Geometry, store *dram.Store, programs []Program) error {
	n := cfg.CommandsPerTile()
	nslots := n * cfg.Memory.GroupsPerChannel
	for _, p := range programs {
		u.Reset(p.Channel, nslots, store)
		if err := eachRequest(geom, n, p, u.Apply); err != nil {
			return err
		}
	}
	return nil
}

// ExpandProgram materializes a warp program as its request sequence in
// program order, with the same lane expansion the SM performs: TS slots
// wrap over the n-entry per-group temporary-storage partition and are
// offset by the request's memory-group. It is the input to the
// reference executor.
func ExpandProgram(geom dram.Geometry, n int, p Program) []isa.Request {
	size := 0
	for _, in := range p.Instrs {
		if in.Kind == isa.KindFence || in.Kind == isa.KindOrderLight {
			size++
		} else {
			size += max(in.Count, 0)
		}
	}
	if size == 0 {
		return nil
	}
	out := make([]isa.Request, 0, size)
	_ = eachRequest(geom, n, p, func(r isa.Request) error {
		out = append(out, r)
		return nil
	})
	return out
}

// eachRequest calls fn on a warp program's requests in program order,
// stopping at fn's first error: the expansion ExpandProgram collects
// and replay streams.
func eachRequest(geom dram.Geometry, n int, p Program, fn func(isa.Request) error) error {
	for _, in := range p.Instrs {
		switch in.Kind {
		case isa.KindFence:
			if err := fn(isa.Request{Kind: isa.KindFence, Channel: uint8(p.Channel)}); err != nil {
				return err
			}
		case isa.KindOrderLight:
			if err := fn(isa.Request{Kind: isa.KindOrderLight, Channel: uint8(p.Channel), Group: uint8(in.Group)}); err != nil {
				return err
			}
		default:
			for lane := 0; lane < in.Count; lane++ {
				r := isa.Request{
					Kind: in.Kind, Op: in.Op, Channel: uint8(p.Channel),
					Imm: in.Imm, Group: uint8(in.Group),
				}
				if in.Kind.IsMemAccess() {
					r.Addr = in.Addr + isa.Addr(int64(lane)*in.Strd)
					loc := geom.Decode(r.Addr)
					r.Bank, r.Row = uint8(loc.Bank), int32(loc.Row)
					r.Group = uint8(geom.GroupOf(loc.Bank))
				}
				r.TSlot = uint16(int(r.Group)*n + (in.TSlot+lane)%n)
				if err := fn(r); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
