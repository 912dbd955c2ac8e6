// Command benchjson records and compares the repository's benchmark
// trajectory. It has two modes:
//
//	go test -bench . -benchmem . | benchjson -label BENCH_PR2 > BENCH_PR2.json
//	benchjson -compare [-gate NAME[:TOLPCT],...] BENCH_PR1.json BENCH_PR2.json
//
// The first parses standard `go test -bench` output (including custom
// ReportMetric columns) into a stable JSON record and derives the
// engine speedups from every Foo / FooDense and Foo / FooTwin benchmark
// pair. The second diffs two such records, flagging time and
// allocation regressions; -gate makes named regressions fatal (exit 1)
// beyond a tolerance (default 25%, for cross-machine trajectory
// points). The raw -bench text should be kept next to the JSON so
// external tools (e.g. benchstat) can consume it directly.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Speedup is a derived dense-vs-skip engine comparison: benchmark Foo
// ran on the quiescence skip-ahead engine, FooDense on the naive dense
// reference, on identical workloads.
type Speedup struct {
	Benchmark string  `json:"benchmark"`
	SkipNs    float64 `json:"skip_ns_per_op"`
	DenseNs   float64 `json:"dense_ns_per_op"`
	Speedup   float64 `json:"speedup"`
}

// TwinSpeedup is a derived twin-vs-skip engine comparison: benchmark
// Foo ran the cycle-accurate skip-ahead engine, FooTwin answered the
// identical grid from the calibrated analytical twin. Unlike the other
// engine pairs the outputs are approximations inside recorded error
// bounds, not byte-identical results — the speedup is what those bounds
// buy.
type TwinSpeedup struct {
	Benchmark string  `json:"benchmark"`
	SkipNs    float64 `json:"skip_ns_per_op"`
	TwinNs    float64 `json:"twin_ns_per_op"`
	// Speedup is skip-time / twin-time: how many times faster the
	// analytical answer arrives.
	Speedup float64 `json:"speedup"`
}

// Record is one point on the benchmark trajectory.
type Record struct {
	Label     string `json:"label,omitempty"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// MaxProcs is the GOMAXPROCS suffix the test runner appended to the
	// benchmark names — the CPU budget the point was recorded under.
	MaxProcs     int           `json:"maxprocs,omitempty"`
	Benchmarks   []Benchmark   `json:"benchmarks"`
	DenseVsSkip  []Speedup     `json:"dense_vs_skip,omitempty"`
	TwinVsSkip   []TwinSpeedup `json:"twin_vs_skip,omitempty"`
	FailedParses []string      `json:"failed_parses,omitempty"`
}

func main() {
	label := flag.String("label", "", "label to embed in the JSON record")
	compare := flag.Bool("compare", false, "compare two JSON records (old new) instead of parsing bench output")
	gate := flag.String("gate", "", "comma-separated NAME[:TOLPCT] benchmarks whose ns/op regression beyond TOLPCT (default 25) fails -compare")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -compare [-gate NAME[:TOLPCT],...] OLD.json NEW.json")
			os.Exit(2)
		}
		gates, err := parseGates(*gate)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), gates); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	in := io.Reader(os.Stdin)
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	rec, err := parse(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	rec.Label = *label
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse reads `go test -bench` output. A result line is
//
//	BenchmarkName-8   10   123456 ns/op   12 B/op   3 allocs/op   4.5 custom/unit
//
// i.e. a name, an iteration count, then (value, unit) pairs.
func parse(r io.Reader) (*Record, error) {
	// The test runner appends -GOMAXPROCS to benchmark names only when
	// it is above one, so "no suffix anywhere" itself means a 1-CPU run.
	rec := &Record{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, MaxProcs: 1}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, ok := parseLine(line)
		if !ok {
			rec.FailedParses = append(rec.FailedParses, line)
			continue
		}
		if mp := maxProcsSuffix(strings.Fields(line)[0]); mp > 0 {
			rec.MaxProcs = mp
		}
		rec.Benchmarks = append(rec.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rec.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	rec.DenseVsSkip = deriveSpeedups(rec.Benchmarks)
	rec.TwinVsSkip = deriveTwinSpeedups(rec.Benchmarks)
	return rec, nil
}

// maxProcsSuffix extracts the -GOMAXPROCS suffix from a benchmark
// name, 0 when there is none.
func maxProcsSuffix(name string) int {
	i := strings.LastIndex(name, "-")
	if i <= 0 {
		return 0
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return 0
	}
	return n
}

func parseLine(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Benchmark{}, false
	}
	name := f[0]
	// Strip the -GOMAXPROCS suffix the test runner appends.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, true
}

// deriveSpeedups pairs every FooDense benchmark with its Foo
// counterpart and reports dense-time / skip-time.
func deriveSpeedups(bs []Benchmark) []Speedup {
	byName := make(map[string]Benchmark, len(bs))
	for _, b := range bs {
		byName[b.Name] = b
	}
	var out []Speedup
	for _, b := range bs {
		base, ok := strings.CutSuffix(b.Name, "Dense")
		if !ok {
			continue
		}
		skip, ok := byName[base]
		if !ok || skip.NsPerOp <= 0 {
			continue
		}
		out = append(out, Speedup{
			Benchmark: base,
			SkipNs:    skip.NsPerOp,
			DenseNs:   b.NsPerOp,
			Speedup:   b.NsPerOp / skip.NsPerOp,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Benchmark < out[j].Benchmark })
	return out
}

// deriveTwinSpeedups pairs every FooTwin benchmark with its Foo
// counterpart and reports skip-time / twin-time.
func deriveTwinSpeedups(bs []Benchmark) []TwinSpeedup {
	byName := make(map[string]Benchmark, len(bs))
	for _, b := range bs {
		byName[b.Name] = b
	}
	var out []TwinSpeedup
	for _, b := range bs {
		base, ok := strings.CutSuffix(b.Name, "Twin")
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		skip, ok := byName[base]
		if !ok {
			continue
		}
		out = append(out, TwinSpeedup{
			Benchmark: base,
			SkipNs:    skip.NsPerOp,
			TwinNs:    b.NsPerOp,
			Speedup:   skip.NsPerOp / b.NsPerOp,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Benchmark < out[j].Benchmark })
	return out
}

// gateSpec is one -gate entry: a benchmark whose ns/op regression
// beyond tolPct fails the comparison.
type gateSpec struct {
	name   string
	tolPct float64
}

func parseGates(s string) ([]gateSpec, error) {
	if s == "" {
		return nil, nil
	}
	var out []gateSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		g := gateSpec{name: part, tolPct: 25}
		if n, tol, ok := strings.Cut(part, ":"); ok {
			v, err := strconv.ParseFloat(tol, 64)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("bad gate tolerance %q (want NAME[:TOLPCT])", part)
			}
			g.name, g.tolPct = n, v
		}
		out = append(out, g)
	}
	return out, nil
}

func load(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// compareFiles renders a trajectory diff between two records: per
// benchmark, time and allocation deltas, with regressions flagged.
// Gated benchmarks whose time regressed beyond their tolerance make the
// comparison itself fail.
func compareFiles(w io.Writer, oldPath, newPath string, gates []gateSpec) error {
	oldRec, err := load(oldPath)
	if err != nil {
		return err
	}
	newRec, err := load(newPath)
	if err != nil {
		return err
	}
	oldBy := make(map[string]Benchmark, len(oldRec.Benchmarks))
	for _, b := range oldRec.Benchmarks {
		oldBy[b.Name] = b
	}

	fmt.Fprintf(w, "benchmark trajectory: %s -> %s\n\n", name(oldRec, oldPath), name(newRec, newPath))
	fmt.Fprintf(w, "%-42s %14s %14s %8s %10s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs Δ")
	for _, nb := range newRec.Benchmarks {
		ob, ok := oldBy[nb.Name]
		if !ok {
			fmt.Fprintf(w, "%-42s %14s %14.0f %8s %10s\n", nb.Name, "(new)", nb.NsPerOp, "", "")
			continue
		}
		delete(oldBy, nb.Name)
		delta := "n/a"
		if ob.NsPerOp > 0 {
			d := (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp * 100
			delta = fmt.Sprintf("%+.1f%%", d)
			if d > 10 {
				delta += " !"
			}
		}
		allocs := fmt.Sprintf("%+.0f", nb.AllocsPerOp-ob.AllocsPerOp)
		fmt.Fprintf(w, "%-42s %14.0f %14.0f %8s %10s\n", nb.Name, ob.NsPerOp, nb.NsPerOp, delta, allocs)
	}
	var gone []string
	for n := range oldBy {
		gone = append(gone, n)
	}
	sort.Strings(gone)
	for _, n := range gone {
		fmt.Fprintf(w, "%-42s %14.0f %14s\n", n, oldBy[n].NsPerOp, "(gone)")
	}
	if len(newRec.DenseVsSkip) > 0 {
		fmt.Fprintf(w, "\ndense-engine vs skip-ahead (new record):\n")
		for _, s := range newRec.DenseVsSkip {
			fmt.Fprintf(w, "%-42s %.2fx\n", s.Benchmark, s.Speedup)
		}
	}
	if len(newRec.TwinVsSkip) > 0 {
		fmt.Fprintf(w, "\ntwin engine vs skip-ahead (new record):\n")
		for _, s := range newRec.TwinVsSkip {
			fmt.Fprintf(w, "%-42s %.0fx\n", s.Benchmark, s.Speedup)
		}
	}
	return checkGates(w, oldRec, newRec, gates)
}

// checkGates fails the comparison when a gated benchmark's ns/op
// regressed beyond its tolerance. A gate naming a benchmark absent from
// either record fails too — a silently vanished gate is itself a
// regression.
func checkGates(w io.Writer, oldRec, newRec *Record, gates []gateSpec) error {
	if len(gates) == 0 {
		return nil
	}
	byName := func(bs []Benchmark) map[string]Benchmark {
		m := make(map[string]Benchmark, len(bs))
		for _, b := range bs {
			m[b.Name] = b
		}
		return m
	}
	oldBy, newBy := byName(oldRec.Benchmarks), byName(newRec.Benchmarks)
	var failed []string
	fmt.Fprintln(w)
	for _, g := range gates {
		ob, okOld := oldBy[g.name]
		nb, okNew := newBy[g.name]
		switch {
		case !okOld || !okNew:
			failed = append(failed, g.name)
			fmt.Fprintf(w, "gate %-40s FAIL: missing from %s record\n", g.name,
				map[bool]string{true: "new", false: "old"}[okOld])
		case ob.NsPerOp <= 0:
			fmt.Fprintf(w, "gate %-40s skip: old record has no timing\n", g.name)
		default:
			d := (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp * 100
			if d > g.tolPct {
				failed = append(failed, g.name)
				fmt.Fprintf(w, "gate %-40s FAIL: %+.1f%% (tolerance %+.0f%%)\n", g.name, d, g.tolPct)
			} else {
				fmt.Fprintf(w, "gate %-40s ok: %+.1f%% (tolerance %+.0f%%)\n", g.name, d, g.tolPct)
			}
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d gated benchmark(s) regressed: %s", len(failed), strings.Join(failed, ", "))
	}
	return nil
}

func name(r *Record, path string) string {
	if r.Label != "" {
		return r.Label
	}
	return path
}
