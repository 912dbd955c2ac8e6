package kernel

import (
	"reflect"
	"slices"
	"testing"

	"orderlight/internal/config"
	"orderlight/internal/gpu"
	"orderlight/internal/isa"
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 12 {
		t.Fatalf("registry has %d kernels, want 12 (Table 2)", len(all))
	}
	if len(Stream()) != 5 || len(Apps()) != 7 {
		t.Fatal("stream/app split mismatch")
	}
	seen := map[string]bool{}
	for _, s := range all {
		if seen[s.Name] {
			t.Fatalf("duplicate kernel name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Desc == "" || s.ComputeRatio == "" || len(s.Phases) == 0 {
			t.Errorf("kernel %q is underspecified", s.Name)
		}
	}
	if _, err := ByName("add"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) succeeded")
	}
	if len(Names()) != 12 {
		t.Error("Names() length mismatch")
	}
}

func TestPhaseCmds(t *testing.T) {
	if got := (PhaseSpec{CmdsPerN: 1}).cmds(8); got != 8 {
		t.Errorf("CmdsPerN=1, n=8: %d", got)
	}
	if got := (PhaseSpec{CmdsPerN: 3.5}).cmds(8); got != 28 {
		t.Errorf("CmdsPerN=3.5, n=8: %d", got)
	}
	if got := (PhaseSpec{CmdsPerN: 0.1}).cmds(4); got != 1 {
		t.Errorf("minimum clamp: %d", got)
	}
	if got := (PhaseSpec{FixedCmds: 4, CmdsPerN: 9}).cmds(64); got != 4 {
		t.Errorf("FixedCmds override: %d", got)
	}
}

func smallCfg(p config.Primitive) config.Config {
	cfg := config.Default()
	cfg.Memory.Channels = 2
	cfg.GPU.PIMSMs = 1
	cfg.GPU.WarpsPerSM = 2
	cfg.Run.Primitive = p
	cfg.Run.DeadlineMS = 20
	return cfg
}

func TestBuildAddCounts(t *testing.T) {
	cfg := smallCfg(config.PrimitiveOrderLight) // TS 1/8 -> N=8, BMF 16 -> 512 B/cmd
	spec, _ := ByName("add")
	k, err := Build(cfg, spec, 8192) // 16 commands per vector per channel -> 2 tiles
	if err != nil {
		t.Fatal(err)
	}
	wantMem := int64(2 /*ch*/ * 2 /*tiles*/ * 3 /*phases*/ * 8)
	if k.MemCmds != wantMem {
		t.Fatalf("MemCmds = %d, want %d", k.MemCmds, wantMem)
	}
	if k.ExecCmds != 0 {
		t.Fatalf("ExecCmds = %d, want 0", k.ExecCmds)
	}
	if k.Orders != 2*2*3 {
		t.Fatalf("Orders = %d, want 12", k.Orders)
	}
	if k.HostBytes != wantMem*512 {
		t.Fatalf("HostBytes = %d", k.HostBytes)
	}
	if len(k.Programs) != 2 {
		t.Fatalf("programs = %d", len(k.Programs))
	}
}

// TestCountMatchesBuild pins Count's closed form to what Build emits
// over every Table 2 kernel × primitive × TS at several footprints,
// including sub-command and non-multiple ones.
func TestCountMatchesBuild(t *testing.T) {
	base := config.Default()
	prims := []config.Primitive{config.PrimitiveNone, config.PrimitiveFence,
		config.PrimitiveOrderLight, config.PrimitiveSeqno}
	for _, spec := range All() {
		for _, prim := range prims {
			for _, ts := range []int{128, 256, 512, 1024} {
				for _, bytes := range []int64{512, 4 << 10, 100_000, 256 << 10} {
					cfg := base
					cfg.Run.Primitive = prim
					cfg.PIM.TSBytes = ts
					k, err := Build(cfg, spec, bytes)
					if err != nil {
						t.Fatalf("Build(%s/%v/ts=%d): %v", spec.Name, prim, ts, err)
					}
					got, err := Count(cfg, spec, bytes)
					if err != nil {
						t.Fatalf("Count(%s/%v/ts=%d): %v", spec.Name, prim, ts, err)
					}
					if got != k.Counts {
						t.Errorf("%s/%v/ts=%d bytes=%d: Count = %+v, Build = %+v",
							spec.Name, prim, ts, bytes, got, k.Counts)
					}
				}
			}
		}
	}
	if _, err := Count(base, Spec{Name: "empty"}, 4096); err == nil {
		t.Error("Count accepted a spec with no phases")
	}
	bad := base
	bad.Memory.Channels = 0
	if _, err := Count(bad, All()[0], 4096); err == nil {
		t.Error("Count accepted an invalid config")
	}
}

func TestBuildNoneEmitsNoPrimitives(t *testing.T) {
	cfg := smallCfg(config.PrimitiveNone)
	spec, _ := ByName("add")
	k, err := Build(cfg, spec, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if k.Orders != 0 {
		t.Fatalf("Orders = %d under primitive=none", k.Orders)
	}
	for _, p := range k.Programs {
		for _, in := range p.Instrs {
			if in.Kind == isa.KindFence || in.Kind == isa.KindOrderLight {
				t.Fatal("ordering instruction emitted under primitive=none")
			}
		}
	}
}

func TestBuildExtraOrderSplitsChunks(t *testing.T) {
	cfg := smallCfg(config.PrimitiveOrderLight).WithTSFraction("1/2") // N=32 > ExtraOrderEvery=16
	spec, _ := ByName("fc")
	k, err := Build(cfg, spec, 32768)
	if err != nil {
		t.Fatal(err)
	}
	maxChunk := 0
	for _, in := range k.Programs[0].Instrs {
		if in.Kind.IsPIM() && in.Count > maxChunk {
			maxChunk = in.Count
		}
	}
	if maxChunk > 16 {
		t.Fatalf("max chunk = %d, want <= ExtraOrderEvery (16)", maxChunk)
	}
}

// TestPrimitiveRateShapes checks the Figure 12 structure: stream-like
// kernels halve their primitives-per-instruction as TS doubles, FC and
// KMeans decrease slower, and Gen_Fil does not decrease at all (§7.2).
func TestPrimitiveRateShapes(t *testing.T) {
	rate := func(name, ts string) float64 {
		cfg := smallCfg(config.PrimitiveOrderLight).WithTSFraction(ts)
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		k, err := Build(cfg, spec, 64*1024)
		if err != nil {
			t.Fatal(err)
		}
		return float64(k.Orders) / float64(k.TotalCmds())
	}
	drop := func(name string) float64 { return rate(name, "1/2") / rate(name, "1/16") }

	if d := drop("add"); d > 0.20 {
		t.Errorf("add primitive rate dropped only to %.2f of 1/16-RB value, want <= 0.20 (50%%/doubling)", d)
	}
	if d := drop("gen_fil"); d < 0.95 || d > 1.05 {
		t.Errorf("gen_fil primitive rate changed by %.2f, want ~1.0 (granularity fixed at 128 B)", d)
	}
	dFC, dAdd := drop("fc"), drop("add")
	if dFC <= dAdd {
		t.Errorf("fc rate drop %.3f should be milder than add's %.3f", dFC, dAdd)
	}
	dKM := drop("kmeans")
	if dKM <= dAdd {
		t.Errorf("kmeans rate drop %.3f should be milder than add's %.3f", dKM, dAdd)
	}
}

// TestEveryKernelRunsCorrectlyUnderOrderLight is the suite-wide
// integration test: all 12 Table 2 kernels build, run to completion on
// the simulated machine with OrderLight, and verify functionally.
func TestEveryKernelRunsCorrectlyUnderOrderLight(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			cfg := smallCfg(config.PrimitiveOrderLight)
			k, err := Build(cfg, spec, 16*1024)
			if err != nil {
				t.Fatal(err)
			}
			m, err := gpu.NewMachine(cfg, k.Store, k.Programs)
			if err != nil {
				t.Fatal(err)
			}
			st, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !st.Verified || !st.Correct {
				t.Fatalf("functional verification failed (%d diff slots)", st.DiffSlots)
			}
			if st.PIMCommands != k.TotalCmds() {
				t.Fatalf("issued %d PIM commands, generator predicted %d", st.PIMCommands, k.TotalCmds())
			}
			if st.OLCount != k.Orders {
				t.Fatalf("issued %d OrderLight packets, generator predicted %d", st.OLCount, k.Orders)
			}
		})
	}
}

func TestEveryKernelRunsCorrectlyUnderFence(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			cfg := smallCfg(config.PrimitiveFence)
			k, err := Build(cfg, spec, 4*1024)
			if err != nil {
				t.Fatal(err)
			}
			m, err := gpu.NewMachine(cfg, k.Store, k.Programs)
			if err != nil {
				t.Fatal(err)
			}
			st, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !st.Correct {
				t.Fatalf("fence run incorrect (%d diff slots)", st.DiffSlots)
			}
			if st.FenceCount != k.Orders {
				t.Fatalf("executed %d fences, generator predicted %d", st.FenceCount, k.Orders)
			}
		})
	}
}

func TestEveryKernelRunsCorrectlyUnderSeqno(t *testing.T) {
	// The §8.1 sequence-number baseline serializes every PIM request at
	// the controller, so it too must be functionally correct.
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			cfg := smallCfg(config.PrimitiveSeqno)
			k, err := Build(cfg, spec, 8*1024)
			if err != nil {
				t.Fatal(err)
			}
			if k.Orders != 0 {
				t.Fatal("seqno mode must not emit ordering instructions")
			}
			m, err := gpu.NewMachine(cfg, k.Store, k.Programs)
			if err != nil {
				t.Fatal(err)
			}
			st, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !st.Correct {
				t.Fatalf("seqno run incorrect (%d diff slots)", st.DiffSlots)
			}
		})
	}
}

func TestSeqnoSlowerThanOrderLightFasterThanFence(t *testing.T) {
	runMS := func(p config.Primitive) float64 {
		cfg := smallCfg(p)
		spec, _ := ByName("add")
		k, err := Build(cfg, spec, 32*1024)
		if err != nil {
			t.Fatal(err)
		}
		m, err := gpu.NewMachine(cfg, k.Store, k.Programs)
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st.ExecMS()
	}
	fe := runMS(config.PrimitiveFence)
	sq := runMS(config.PrimitiveSeqno)
	ol := runMS(config.PrimitiveOrderLight)
	if !(ol < sq) {
		t.Errorf("OrderLight (%.4f ms) should beat seqno (%.4f ms): per-request serialization costs", ol, sq)
	}
	if !(sq < fe) {
		t.Errorf("seqno (%.4f ms) should beat fence (%.4f ms): no per-phase core stall", sq, fe)
	}
}

func TestAddKernelIncorrectWithoutPrimitive(t *testing.T) {
	cfg := smallCfg(config.PrimitiveNone)
	spec, _ := ByName("add")
	k, err := Build(cfg, spec, 16*1024)
	if err != nil {
		t.Fatal(err)
	}
	m, err := gpu.NewMachine(cfg, k.Store, k.Programs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Correct {
		t.Fatal("add without ordering primitive verified correct; hazard did not fire")
	}
}

func TestSpreadTilesCorrectAndFaster(t *testing.T) {
	// Tiles spread across memory-groups stay correct under OrderLight
	// (per-group ordering + per-group TS partitions) and finish faster
	// thanks to bank-group parallelism.
	cfg := smallCfg(config.PrimitiveOrderLight)
	spec, _ := ByName("add")

	run := func(s Spec) (float64, bool) {
		k, err := Build(cfg, s, 32*1024)
		if err != nil {
			t.Fatal(err)
		}
		m, err := gpu.NewMachine(cfg, k.Store, k.Programs)
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st.ExecMS(), st.Correct
	}
	oneMS, oneOK := run(spec)
	spreadMS, spreadOK := run(WithSpread(spec))
	if !oneOK || !spreadOK {
		t.Fatal("a placement variant verified incorrect")
	}
	if !(spreadMS < oneMS) {
		t.Errorf("spread (%.4f ms) not faster than single-group (%.4f ms)", spreadMS, oneMS)
	}
}

func TestSpreadTilesUseAllGroups(t *testing.T) {
	cfg := smallCfg(config.PrimitiveOrderLight)
	spec, _ := ByName("copy")
	k, err := Build(cfg, WithSpread(spec), 32*1024)
	if err != nil {
		t.Fatal(err)
	}
	groups := map[int]bool{}
	for _, in := range k.Programs[0].Instrs {
		groups[in.Group] = true
	}
	if len(groups) != cfg.Memory.GroupsPerChannel {
		t.Fatalf("spread kernel touched %d groups, want %d", len(groups), cfg.Memory.GroupsPerChannel)
	}
}

func TestBMFReducesCommandCount(t *testing.T) {
	// Figure 13's mechanism: the same data footprint needs 4x the
	// commands at BMF 4 versus BMF 16.
	spec, _ := ByName("add")
	cfg16 := smallCfg(config.PrimitiveOrderLight)
	cfg4 := cfg16
	cfg4.PIM.BMF = 4
	k16, err := Build(cfg16, spec, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	k4, err := Build(cfg4, spec, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	if k4.MemCmds != 4*k16.MemCmds {
		t.Fatalf("BMF4 commands = %d, BMF16 = %d, want 4x", k4.MemCmds, k16.MemCmds)
	}
}

func TestBuildHostStreams(t *testing.T) {
	cfg := smallCfg(config.PrimitiveOrderLight)
	cfg.GPU.L2SizeMB = 0 // measure DRAM traffic, not tag hits
	spec, _ := ByName("copy")
	k, err := BuildHost(cfg, spec, 16*1024)
	if err != nil {
		t.Fatal(err)
	}
	// 16 KiB / 512 B = 32 slots per structure; 2 memory phases x BMF 16
	// passes x 32 slots x 2 channels.
	want := int64(2 * 16 * 32 * 2)
	if k.MemCmds != want {
		t.Fatalf("MemCmds = %d, want %d", k.MemCmds, want)
	}
	if k.HostBytes != want*32 {
		t.Fatalf("HostBytes = %d", k.HostBytes)
	}
	for _, p := range k.Programs {
		for _, in := range p.Instrs {
			if in.Kind != isa.KindHostLoad && in.Kind != isa.KindHostStore {
				t.Fatalf("host program contains %v", in.Kind)
			}
			if in.Count > 32 {
				t.Fatalf("warp instruction with %d lanes, max 32", in.Count)
			}
		}
	}
	m, err := gpu.NewMachine(cfg, k.Store, k.Programs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.HostCommands != k.MemCmds {
		t.Fatalf("DRAM serviced %d host commands, generator predicted %d", st.HostCommands, k.MemCmds)
	}
	if st.PIMCommands != 0 {
		t.Fatal("host run issued PIM commands")
	}
	if !st.Correct {
		t.Fatal("host run must leave memory untouched relative to the reference")
	}
}

func TestBuildHostSkipsExecPhases(t *testing.T) {
	cfg := smallCfg(config.PrimitiveOrderLight)
	spec, _ := ByName("kmeans") // load + heavy exec phase
	k, err := BuildHost(cfg, spec, 8*1024)
	if err != nil {
		t.Fatal(err)
	}
	// Only the load phase generates traffic: 16 slots x BMF x channels.
	want := int64(16 * 16 * 2)
	if k.MemCmds != want {
		t.Fatalf("MemCmds = %d, want %d (exec phases produce no memory traffic)", k.MemCmds, want)
	}
}

func TestHostTimeScalesWithBytes(t *testing.T) {
	spec, _ := ByName("copy")
	cfg := smallCfg(config.PrimitiveOrderLight)
	k1, _ := Build(cfg, spec, 16*1024)
	k2, _ := Build(cfg, spec, 32*1024)
	if !(k2.HostTime(cfg) > k1.HostTime(cfg)) {
		t.Fatal("host roofline time must grow with footprint")
	}
}

func TestByNameDoesNotAliasRegistry(t *testing.T) {
	a, err := ByName("daxpy")
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(a.Phases)
	a.Phases[0].Name, a.Phases[0].CmdsPerN = "mutated", 99
	a.Phases = append(a.Phases[:1], PhaseSpec{Name: "extra"})
	b, err := ByName("daxpy")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.Phases, want) {
		t.Fatalf("second ByName returned phases %+v, want the original %+v", b.Phases, want)
	}
	if fresh := All(); !reflect.DeepEqual(fresh[2], b) {
		t.Fatalf("ByName(daxpy) = %+v, want the Table 2 spec %+v", b, fresh[2])
	}
}
