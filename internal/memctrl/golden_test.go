package memctrl_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"orderlight/internal/config"
	"orderlight/internal/dram"
	"orderlight/internal/fault"
	"orderlight/internal/gpu"
	"orderlight/internal/isa"
	"orderlight/internal/kernel"
	"orderlight/internal/memctrl"
	"orderlight/internal/sim"
	"orderlight/internal/stats"
)

// issueHash folds a device issue log and the scheduler's command
// counters into one digest: any change to which command the scheduler
// picks, or when, moves it.
type issueHash struct{ buf []byte }

func (h *issueHash) add(vs ...uint64) {
	for _, v := range vs {
		h.buf = binary.LittleEndian.AppendUint64(h.buf, v)
	}
}

func (h *issueHash) log(log []isa.Request) {
	for _, r := range log {
		h.add(r.ID, r.Seq, uint64(r.Addr), uint64(r.Kind), uint64(r.Bank), uint64(r.Row), uint64(r.TSlot))
	}
}

func (h *issueHash) stats(st *stats.Run) {
	h.add(uint64(st.PreCmds), uint64(st.ActCmds), uint64(st.RowHits), uint64(st.RowMisses),
		uint64(st.OLFlagBlocked), uint64(st.Refreshes))
}

func (h *issueHash) sum() string {
	f := fnv.New64a()
	f.Write(h.buf)
	return fmt.Sprintf("%016x", f.Sum64())
}

// scheduleCase is one machine run whose per-channel issue order is
// pinned.
type scheduleCase struct {
	name   string
	kernel string
	prim   config.Primitive
	bytes  int64
	spread bool
	tweak  func(*config.Config)
	plan   *fault.Spec
	dense  bool
}

func goldenCfg(p config.Primitive) config.Config {
	cfg := config.Default()
	cfg.Memory.Channels = 2
	cfg.GPU.PIMSMs = 1
	cfg.GPU.WarpsPerSM = 2
	cfg.Run.Primitive = p
	cfg.Run.DeadlineMS = 20
	return cfg
}

func (sc scheduleCase) run(t *testing.T) string {
	t.Helper()
	cfg := goldenCfg(sc.prim)
	if sc.tweak != nil {
		sc.tweak(&cfg)
	}
	spec, err := kernel.ByName(sc.kernel)
	if err != nil {
		t.Fatal(err)
	}
	if sc.spread {
		spec = kernel.WithSpread(spec)
	}
	k, err := kernel.Build(cfg, spec, sc.bytes)
	if err != nil {
		t.Fatal(err)
	}
	m, err := gpu.NewMachine(cfg, k.Store, k.Programs)
	if err != nil {
		t.Fatal(err)
	}
	m.SetDense(sc.dense)
	var plan *fault.Plan
	if sc.plan != nil {
		plan = fault.NewPlan(*sc.plan)
		m.SetFaultPlan(plan)
	}
	logs := make([][]isa.Request, cfg.Memory.Channels)
	for ch := range logs {
		m.Controller(ch).IssueLog = &logs[ch]
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil && plan.Report().Points[fault.PointReordered] == 0 {
		t.Fatal("the fault plan never reordered a request")
	}
	var h issueHash
	for _, l := range logs {
		h.add(uint64(len(l)))
		h.log(l)
	}
	h.stats(st)
	h.add(uint64(st.End))
	return h.sum()
}

// TestScheduleIssueOrderGolden pins the exact device issue order, the
// PRE/ACT counts and the OrderLight-blocked cycle count of the FR-FCFS
// scheduler (and its FCFS, seqno and refresh variants) on whole-machine
// runs under the skip-ahead engine, which also exercises the
// controller's quiescence hint, plus a dense multi-epoch stream fed to
// one controller directly. The digests were recorded on the two-pass
// scheduler the one-pass loop replaced; a scheduler change that picks a
// different command on any cycle moves them.
func TestScheduleIssueOrderGolden(t *testing.T) {
	cases := []struct {
		sc   scheduleCase
		want string
	}{
		{scheduleCase{name: "frfcfs/orderlight/add", kernel: "add", prim: config.PrimitiveOrderLight, bytes: 256 << 10}, "0696ac07e92ccf57"},
		{scheduleCase{name: "frfcfs/orderlight/bn_bwd", kernel: "bn_bwd", prim: config.PrimitiveOrderLight, bytes: 128 << 10}, "78f2c3adc3610655"},
		{scheduleCase{name: "frfcfs/orderlight/hist", kernel: "hist", prim: config.PrimitiveOrderLight, bytes: 128 << 10}, "bfeaa0ce36a4f59c"},
		{scheduleCase{name: "frfcfs/fence/triad", kernel: "triad", prim: config.PrimitiveFence, bytes: 128 << 10}, "9fd6988915449785"},
		{scheduleCase{name: "frfcfs/none/add", kernel: "add", prim: config.PrimitiveNone, bytes: 128 << 10}, "59777df25773c1f8"},
		{scheduleCase{name: "frfcfs/orderlight/add/dense", kernel: "add", prim: config.PrimitiveOrderLight, bytes: 128 << 10, dense: true}, "212f9f3f90584f3f"},
		{scheduleCase{name: "fcfs/orderlight/spread4/bn_fwd", kernel: "bn_fwd", prim: config.PrimitiveOrderLight, bytes: 128 << 10,
			spread: true, tweak: func(c *config.Config) { c.Memory.Sched = config.SchedFCFS }}, "f1604132b3eecb14"},
		{scheduleCase{name: "fcfs/orderlight/gen_fil", kernel: "gen_fil", prim: config.PrimitiveOrderLight, bytes: 128 << 10,
			tweak: func(c *config.Config) { c.Memory.Sched = config.SchedFCFS }}, "ad1ed9217578ad72"},
		{scheduleCase{name: "seqno/add", kernel: "add", prim: config.PrimitiveSeqno, bytes: 128 << 10}, "4bb645f63e3b504a"},
		{scheduleCase{name: "refresh/orderlight/copy", kernel: "copy", prim: config.PrimitiveOrderLight, bytes: 256 << 10,
			tweak: func(c *config.Config) { c.Memory.RefreshEnabled, c.Memory.REFI, c.Memory.RFC = true, 400, 60 }}, "8108d5c55a03197c"},
		{scheduleCase{name: "spread4/orderlight/add", kernel: "add", prim: config.PrimitiveOrderLight, bytes: 256 << 10, spread: true}, "c89adc98e83da5f4"},
		{scheduleCase{name: "spread4/orderlight/svm", kernel: "svm", prim: config.PrimitiveOrderLight, bytes: 128 << 10, spread: true}, "75a5f2ffb8395a23"},
		{scheduleCase{name: "illegal-reorder/orderlight/add", kernel: "add", prim: config.PrimitiveOrderLight, bytes: 256 << 10,
			plan: &fault.Spec{Class: fault.ClassIllegalReorder, Seed: 1, Rate: 0.3}}, "023422a0e9b775ed"},
		{scheduleCase{name: "illegal-reorder/orderlight/spread4/daxpy", kernel: "daxpy", prim: config.PrimitiveOrderLight, bytes: 128 << 10,
			spread: true, plan: &fault.Spec{Class: fault.ClassIllegalReorder, Seed: 7, Rate: 1}}, "9769e5ea35cc42fb"},
	}
	for _, c := range cases {
		t.Run(c.sc.name, func(t *testing.T) {
			if got := c.sc.run(t); got != c.want {
				t.Errorf("issue digest %s, want %s", got, c.want)
			}
		})
	}
	t.Run("stream/multi-epoch", func(t *testing.T) {
		if got, want := multiEpochStreamDigest(t, config.SchedFRFCFS), "fc71d2cf5e32ed4b"; got != want {
			t.Errorf("issue digest %s, want %s", got, want)
		}
	})
	t.Run("stream/multi-epoch/fcfs", func(t *testing.T) {
		if got, want := multiEpochStreamDigest(t, config.SchedFCFS), "9d4b2e9ec437ffc7"; got != want {
			t.Errorf("issue digest %s, want %s", got, want)
		}
	})
}

// multiEpochStreamDigest feeds one controller a seeded stream of loads,
// stores and execs over every bank and a few rows, with an OrderLight
// packet (single- or multi-group) every few requests, ticking densely,
// and digests the issue log and scheduler counters.
func multiEpochStreamDigest(t *testing.T, sched config.SchedPolicy) string {
	t.Helper()
	cfg := config.Default()
	cfg.Memory.Sched = sched
	geom := dram.NewGeometry(cfg.Memory.Channels, cfg.Memory.BanksPerChannel,
		cfg.Memory.RowBufferBytes, cfg.Memory.BusWidthBytes,
		cfg.Memory.GroupsPerChannel, cfg.PIM.BMF)
	st := stats.New(cfg.BytesPerCommand())
	c := memctrl.New(0, cfg, geom, dram.NewStore(geom.LanesPerSlot), st)
	var log []isa.Request
	c.IssueLog = &log
	rng := sim.NewRand(29)
	var queue []isa.Request
	var pkt uint32 // one counter keeps every group's numbers increasing
	for id := uint64(1); id <= 3000; id++ {
		if rng.Intn(6) == 0 {
			g := rng.Intn(geom.Groups)
			r := isa.Request{ID: id, Kind: isa.KindOrderLight, Group: uint8(g),
				OL: isa.OLPacket{PktID: isa.PktIDOrderLight, Group: uint8(g), Number: pkt}}
			pkt++
			if rng.Intn(3) == 0 {
				r.OL.ExtraMask = uint16(rng.Intn(1 << geom.Groups))
			}
			queue = append(queue, r)
			continue
		}
		bank := rng.Intn(geom.Banks)
		row := rng.Intn(4)
		kind := [...]isa.Kind{isa.KindPIMLoad, isa.KindPIMStore, isa.KindPIMExec, isa.KindHostLoad}[rng.Intn(4)]
		addr := geom.Encode(dram.Loc{Channel: 0, Bank: bank, Row: row, Col: rng.Intn(geom.SlotsPerRow)})
		queue = append(queue, isa.Request{ID: id, Kind: kind, Op: isa.OpAdd, Addr: addr, Imm: 1,
			Group: uint8(geom.GroupOf(bank)), Bank: uint8(bank), Row: int32(row), TSlot: uint16(rng.Intn(4))})
	}
	cy := int64(0)
	for ; cy < 1_000_000; cy++ {
		for len(queue) > 0 && c.CanAccept(queue[0]) {
			c.Accept(queue[0])
			queue = queue[1:]
		}
		c.Tick(cy)
		if len(queue) == 0 && c.Pending() == 0 {
			break
		}
	}
	if c.Pending() != 0 || len(queue) != 0 {
		t.Fatalf("stream did not drain in %d cycles", cy)
	}
	var h issueHash
	h.log(log)
	h.stats(st)
	h.add(uint64(cy))
	return h.sum()
}
