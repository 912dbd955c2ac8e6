package orderlight

import (
	"context"
	"strconv"
	"testing"

	"orderlight/internal/config"
	"orderlight/internal/core"
	"orderlight/internal/dram"
	"orderlight/internal/experiments"
	"orderlight/internal/isa"
	"orderlight/internal/sim"
)

// benchScale keeps one full-figure regeneration around a second; raise
// it (or use cmd/olbench) for steadier steady-state numbers.
var benchScale = Scale{BytesPerChannel: 32 << 10}

// benchConfig is the Table 1 machine.
func benchConfig() Config { return DefaultConfig() }

// runExperiment is the common body: regenerate the figure b.N times and
// surface one headline metric from the result.
func runExperiment(b *testing.B, id string, metricRow, metricCol int, metricName string) {
	b.Helper()
	cfg := benchConfig()
	var tab *Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.Run(id, cfg, benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	if metricRow >= 0 && metricRow < len(tab.Rows) {
		if v, perr := strconv.ParseFloat(tab.Rows[metricRow][metricCol], 64); perr == nil {
			b.ReportMetric(v, metricName)
		}
	}
}

// runExperimentDense is runExperiment on the naive dense tick engine —
// the parity reference. Each Dense benchmark pairs with its plain
// counterpart; cmd/benchjson derives the skip-ahead speedup from the
// pair, which is the number the benchmark trajectory tracks.
func runExperimentDense(b *testing.B, id string) {
	b.Helper()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := RunExperimentContext(context.Background(), id, cfg,
			WithScale(benchScale), WithEngine("dense")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Config regenerates the configuration table (Table 1).
func BenchmarkTable1Config(b *testing.B) { runExperiment(b, "table1", -1, 0, "") }

// BenchmarkTable2Workloads regenerates the workload table (Table 2).
func BenchmarkTable2Workloads(b *testing.B) { runExperiment(b, "table2", -1, 0, "") }

// BenchmarkFig5FenceOverhead regenerates Figure 5 (fence overhead for
// vector_add) and reports the 1/8-RB wait cycles per fence.
func BenchmarkFig5FenceOverhead(b *testing.B) {
	runExperiment(b, "fig5", 2, 2, "waitCycles/fence@1/8RB")
}

// BenchmarkFig5FenceOverheadDense is Figure 5 on the dense reference
// engine (skip-ahead disabled).
func BenchmarkFig5FenceOverheadDense(b *testing.B) { runExperimentDense(b, "fig5") }

// BenchmarkFig5CacheWarm regenerates Figure 5 against a warm
// content-addressed result cache: after one priming run, every cell is
// served from the cache, so this is the memoization floor — key
// hashing, blob decode and table assembly, zero cells simulated.
// Compare with BenchmarkFig5FenceOverhead for the cache's payoff.
func BenchmarkFig5CacheWarm(b *testing.B) {
	cfg := benchConfig()
	dir := b.TempDir()
	prime := func() (*Table, error) {
		return RunExperimentContext(context.Background(), "fig5", cfg,
			WithScale(benchScale), WithResultCache(dir))
	}
	if _, err := prime(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prime(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10aStreamBandwidth regenerates Figure 10a and reports the
// Add kernel's OrderLight command bandwidth at 1/8 RB.
func BenchmarkFig10aStreamBandwidth(b *testing.B) {
	runExperiment(b, "fig10a", 17, 3, "addOL-GC/s@1/8RB")
}

// BenchmarkFig10bStreamTime regenerates Figure 10b and reports the Add
// kernel's OrderLight speedup over the GPU at 1/8 RB.
func BenchmarkFig10bStreamTime(b *testing.B) {
	runExperiment(b, "fig10b", 17, 7, "addOLvsGPU@1/8RB")
}

// BenchmarkFig11PeakCommandBW regenerates Figure 11 and reports the
// measured fraction of the analytic DRAM-timing peak.
func BenchmarkFig11PeakCommandBW(b *testing.B) {
	runExperiment(b, "fig11", 4, 1, "measured/peak")
}

// BenchmarkFig12Applications regenerates Figure 12 and reports bn_fwd's
// OrderLight speedup over fence at 1/16 RB.
func BenchmarkFig12Applications(b *testing.B) {
	runExperiment(b, "fig12", 0, 4, "bnFwdSpeedup@1/16RB")
}

// BenchmarkFig12ApplicationsDense is Figure 12 on the dense reference
// engine.
func BenchmarkFig12ApplicationsDense(b *testing.B) { runExperimentDense(b, "fig12") }

// BenchmarkFig13BMFSweep regenerates Figure 13 and reports the BMF-4
// OrderLight-over-fence ratio at 1/16 RB.
func BenchmarkFig13BMFSweep(b *testing.B) {
	runExperiment(b, "fig13", 0, 5, "OLoverFence@BMF4")
}

// BenchmarkAblationSubPartitions regenerates the copy-and-merge ablation.
func BenchmarkAblationSubPartitions(b *testing.B) {
	runExperiment(b, "ablation-subpart", -1, 0, "")
}

// BenchmarkAblationPlacement regenerates the operand-placement ablation.
func BenchmarkAblationPlacement(b *testing.B) {
	runExperiment(b, "ablation-placement", -1, 0, "")
}

// BenchmarkAblationOoOHost regenerates the §9 OoO-CPU-host ablation.
func BenchmarkAblationOoOHost(b *testing.B) {
	runExperiment(b, "ablation-ooo", -1, 0, "")
}

// BenchmarkRelatedSeqno regenerates the §8.1 sequence-number comparison
// and reports OrderLight's command bandwidth.
func BenchmarkRelatedSeqno(b *testing.B) {
	runExperiment(b, "related-seqno", 4, 2, "orderlightGC/s")
}

// BenchmarkAblationHostConcurrency regenerates the FGA host-sharing
// ablation.
func BenchmarkAblationHostConcurrency(b *testing.B) {
	runExperiment(b, "ablation-host", -1, 0, "")
}

// BenchmarkAblationNoC regenerates the §9 multi-route NoC ablation.
func BenchmarkAblationNoC(b *testing.B) {
	runExperiment(b, "ablation-noc", -1, 0, "")
}

// BenchmarkAblationRefresh regenerates the DRAM-refresh ablation.
func BenchmarkAblationRefresh(b *testing.B) {
	runExperiment(b, "ablation-refresh", -1, 0, "")
}

// BenchmarkAblationSched regenerates the scheduler-policy ablation.
func BenchmarkAblationSched(b *testing.B) {
	runExperiment(b, "ablation-sched", -1, 0, "")
}

// BenchmarkTaxonomyArbitration regenerates the §3.2 FGA-vs-CGA study
// and reports the CGA/FGA host-latency ratio.
func BenchmarkTaxonomyArbitration(b *testing.B) {
	runExperiment(b, "taxonomy-arbitration", 1, 3, "cgaOverFgaLatency")
}

// BenchmarkValidationHostBW regenerates the host-bandwidth validation
// and reports the measured streaming bandwidth for copy.
func BenchmarkValidationHostBW(b *testing.B) {
	runExperiment(b, "validation-hostbw", 0, 4, "hostGB/s")
}

// BenchmarkSensitivityGranularity regenerates the offload-size
// break-even sweep and reports OL-vs-GPU at the smallest offload.
func BenchmarkSensitivityGranularity(b *testing.B) {
	runExperiment(b, "sensitivity-granularity", 0, 5, "OLvsGPU@4KiB")
}

// BenchmarkSensitivitySMs regenerates the SM-apportionment sweep.
func BenchmarkSensitivitySMs(b *testing.B) {
	runExperiment(b, "sensitivity-sms", -1, 0, "")
}

// --- Component microbenchmarks -------------------------------------

// BenchmarkMachineAddOrderLight measures whole-machine simulation
// throughput: simulated PIM commands per wall second for the Add kernel
// under OrderLight.
func BenchmarkMachineAddOrderLight(b *testing.B) {
	cfg := benchConfig()
	cfg.Run.Primitive = PrimitiveOrderLight
	var cmds int64
	for i := 0; i < b.N; i++ {
		res, err := RunKernel(cfg, "add", 32<<10)
		if err != nil {
			b.Fatal(err)
		}
		cmds += res.PIMCommands
	}
	b.ReportMetric(float64(cmds)/b.Elapsed().Seconds(), "simCmds/s")
}

// BenchmarkMachineAddFence is the fence-mode counterpart (the simulator
// spends most of its cycles idling warps, so this is slower per command).
func BenchmarkMachineAddFence(b *testing.B) {
	cfg := benchConfig()
	cfg.Run.Primitive = PrimitiveFence
	for i := 0; i < b.N; i++ {
		if _, err := RunKernel(cfg, "add", 16<<10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimColdMix is shaped like perfbench's sim-cold workload: one
// op simulates each of the 12 Table 2 kernels once under fence and once
// under OrderLight on the Table 1 machine, with per-channel footprints
// cycling over 16–256 KiB and TS sizes over the four swept fractions.
// `make profile` profiles it.
func BenchmarkSimColdMix(b *testing.B) {
	footprints := []int64{16 << 10, 48 << 10, 112 << 10, 256 << 10}
	type cell struct {
		cfg   Config
		name  string
		bytes int64
	}
	var cells []cell
	for _, name := range Kernels() {
		for _, p := range []Primitive{PrimitiveFence, PrimitiveOrderLight} {
			j := len(cells)
			cfg := benchConfig().WithTSFraction(experiments.TSFractions[j/len(footprints)%len(experiments.TSFractions)])
			cfg.Run.Primitive = p
			cells = append(cells, cell{cfg, name, footprints[j%len(footprints)]})
		}
	}
	var cycles int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			res, err := RunKernel(c.cfg, c.name, c.bytes)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Correct {
				b.Fatalf("%s/%v verified incorrect", c.name, c.cfg.Run.Primitive)
			}
			cycles += res.ExecTime().CoreCycles()
		}
	}
	b.ReportMetric(float64(cycles)/1e3/b.Elapsed().Seconds(), "sim-kcycles/s")
}

// BenchmarkMachineAddOrderLightDense is the OrderLight machine run on
// the dense reference engine.
func BenchmarkMachineAddOrderLightDense(b *testing.B) {
	cfg := benchConfig()
	cfg.Run.Primitive = PrimitiveOrderLight
	for i := 0; i < b.N; i++ {
		if _, err := RunKernelContext(context.Background(), cfg, "add", 32<<10, WithEngine("dense")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachineAddFenceDense is the fence machine run on the dense
// reference engine. Fence mode idles warps for most of the simulated
// time, so this pair shows skip-ahead at its best.
func BenchmarkMachineAddFenceDense(b *testing.B) {
	cfg := benchConfig()
	cfg.Run.Primitive = PrimitiveFence
	for i := 0; i < b.N; i++ {
		if _, err := RunKernelContext(context.Background(), cfg, "add", 16<<10, WithEngine("dense")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipeSteadyState measures the ring-buffer Pipe and Queue on
// steady-state traffic; allocs/op must report 0.
func BenchmarkPipeSteadyState(b *testing.B) {
	p := sim.NewPipe[int](3, 16)
	q := sim.NewQueue[int](16)
	now := sim.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 16; j++ {
			p.Push(now, j)
			q.Push(j)
		}
		for j := 0; j < 16; j++ {
			p.Pop(now + 3)
			q.Pop()
		}
		now++
	}
}

// BenchmarkOLPacketCodec measures the Figure 8 bit-packing round trip.
func BenchmarkOLPacketCodec(b *testing.B) {
	p := isa.OLPacket{PktID: isa.PktIDOrderLight, Channel: 7, Group: 3, Number: 12345}
	var sink uint64
	for i := 0; i < b.N; i++ {
		p.Number = uint32(i)
		sink += isa.DecodeOLPacket(p.Encode()).Encode()
	}
	_ = sink
}

// BenchmarkTracker measures the memory controller's per-request ordering
// bookkeeping (arrive + issue, with periodic OrderLight packets).
func BenchmarkTracker(b *testing.B) {
	tr := core.NewTracker(4)
	var num uint32
	for i := 0; i < b.N; i++ {
		g := i & 3
		e := tr.Arrive(g)
		if i%8 == 7 {
			_ = tr.OrderLight(g, num)
			num++
		}
		tr.Issued(g, e)
	}
}

// BenchmarkDRAMTiming measures the bank timing checker on a steady
// row-burst pattern.
func BenchmarkDRAMTiming(b *testing.B) {
	tm := dram.NewTiming(config.Default().Memory.Timing, 16)
	cycle := int64(0)
	row := 0
	for i := 0; i < b.N; i++ {
		if tm.OpenRow(0) != row {
			if tm.OpenRow(0) >= 0 {
				cycle = max64(cycle, tm.Earliest(dram.CmdPRE, 0, tm.OpenRow(0)))
				tm.Issue(dram.CmdPRE, 0, tm.OpenRow(0), cycle)
			}
			cycle = max64(cycle, tm.Earliest(dram.CmdACT, 0, row))
			tm.Issue(dram.CmdACT, 0, row, cycle)
		}
		cycle = max64(cycle, tm.Earliest(dram.CmdWR, 0, row))
		tm.Issue(dram.CmdWR, 0, row, cycle)
		if i%8 == 7 {
			row ^= 1
		}
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
