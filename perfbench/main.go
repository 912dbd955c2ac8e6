// Command perfbench measures the simulator's host cost end to end and
// layer by layer. One op is one simulation cell (sim-cold, sim-warm) or
// one submit-to-result job (serve-mix); see README.md for the design.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload sim-cold --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --steady 5 --workload serve-mix --seed 1 --seconds 25
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Earlier lines carry
// provenance, the simulated-statistics digest and sample counts.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// workDir holds everything a run writes (span dumps, the serve-mix
// result cache), relative to the repository root it runs from.
const workDir = ".bench_build/perfbench"

// options are one run's inputs.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// metric is one named measurement in the result line.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// result is one run's outcome.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []metric
}

func (r *result) add(name string, value float64, unit string) {
	r.Metrics = append(r.Metrics, metric{name, value, unit})
}

// resultLine is the JSON shape of the last output line.
type resultLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

// finite keeps the result line valid JSON: a latency over a sample
// holding a failed op is infinite ("missed every limit"), written as
// the largest float.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

var workloads = map[string]func(context.Context, options) (*result, error){
	"sim-cold":  runSimCold,
	"sim-warm":  runSimWarm,
	"serve-mix": runServeMix,
}

func main() {
	var (
		o      options
		seed   int64
		trace  int
		steady int
	)
	flag.StringVar(&o.workload, "workload", "", "workload: sim-cold, sim-warm or serve-mix")
	flag.Int64Var(&seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 25, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	flag.IntVar(&steady, "steady", 0, "run the workload this many times (seeds seed, seed+1, ...) in child processes and report each metric's median, quartiles and spread")
	flag.Parse()
	o.seed, o.trace = uint64(seed), trace == 1

	run, ok := workloads[o.workload]
	if !ok || seed < 0 || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload sim-cold|sim-warm|serve-mix, --seed >= 0, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	if steady > 0 {
		if err := steadyReport(o, steady); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	// One process drives the load: GOMAXPROCS equals the CPU count.
	runtime.GOMAXPROCS(runtime.NumCPU())
	printProvenance(o)
	res, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	want := endToEndNames
	if o.trace {
		want = perLayerNames
	}
	if err := checkNames(res.Metrics, want); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]map[string]any)}
	for _, m := range res.Metrics {
		line.Metrics[m.Name] = map[string]any{"value": finite(m.Value), "unit": m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// The metrics BENCHMARK.json declares: every run reports exactly the
// end-to-end set untraced and the per-layer set traced.
var (
	endToEndNames = []string{"setup_s", "op_p50_ms", "op_tail_ms", "ops_per_s", "cpu_ms_per_op",
		"allocs_per_op", "rss_peak_mb", "sim_kcycles_per_s"}
	perLayerNames = []string{
		"kernel.build_ms", "kernel.build_allocs", "gpu.new_ms", "gpu.new_allocs",
		"gpu.run_ms", "gpu.run_allocs", "gpu.verify_ms", "gpu.verify_allocs", "gpu.run_ns_per_cycle",
		"dram.clone_ms", "dram.equal_ms", "dram.touched_slots", "pim.replay_ms",
		"sim.cycles", "pim.cmds", "memctrl.act_cmds", "memctrl.row_hit_ratio",
		"core.fence_stall_cycles", "core.ol_stall_cycles",
		"runner.cell_overhead_ms", "runner.hit_ms", "runner.decode_ms",
		"rcache.get_ms", "rcache.put_ms", "rcache.hit_ratio",
		"serve.submit_ms", "serve.await_ms", "serve.result_ms", "serve.healthz_ms", "serve.memo_hit_ratio",
		"trace.ops_per_s", "trace.untraced_ops_per_s", "trace.overhead_pct",
	}
)

// checkNames requires the run to have reported exactly the declared
// metrics, each once, each a number.
func checkNames(ms []metric, want []string) error {
	got := make(map[string]bool)
	for _, m := range ms {
		if got[m.Name] {
			return fmt.Errorf("metric %s reported twice", m.Name)
		}
		if math.IsNaN(m.Value) {
			return fmt.Errorf("metric %s has no value", m.Name)
		}
		got[m.Name] = true
	}
	for _, name := range want {
		if !got[name] {
			return fmt.Errorf("metric %s not reported", name)
		}
		delete(got, name)
	}
	for name := range got {
		return fmt.Errorf("metric %s is not declared", name)
	}
	return nil
}

// printProvenance writes the facts every figure depends on.
func printProvenance(o options) {
	fmt.Printf("provenance: workload=%s seed=%d seconds=%g trace=%t nproc=%d gomaxprocs=%d runner_parallelism=1 go=%s cpu=%q commit=%s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), cpuModel(), commit())
}

// cpuModel reads the CPU model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checkout's git commit as run.sh found it, or
// "unknown" outside a git work tree.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// usage is the process's CPU time and peak resident set size.
type usage struct {
	cpu     time.Duration
	maxRSSK int64
}

func getUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), maxRSSK: ru.Maxrss}
}

// medianSetup runs set-up reps times and returns the median duration
// in seconds. Each rep builds the workload's state from scratch and is
// told whether it is the last, whose state the timed window uses, so
// earlier reps can release theirs.
func medianSetup(reps int, rep func(last bool) error) (float64, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := rep(i == reps-1); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

// setupReps is how many times each run builds its state; setup_s is
// the median.
const setupReps = 3
