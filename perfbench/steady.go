package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steadyReport runs the workload n times, each in a fresh child process
// with the next seed, and prints each metric's median, quartiles and
// spread (interquartile range over median) across the runs, the
// figures a bound in BENCHMARK.json is set from. Each child discards
// its warm-up ops before timing and refuses op_tail_ms when fewer than
// ten samples lie beyond it, so a refused run fails the report.
func steadyReport(o options, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	trace := "0"
	if o.trace {
		trace = "1"
	}
	for i := 0; i < n; i++ {
		seed := o.seed + uint64(i)
		cmd := exec.Command(self, "--workload", o.workload, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", trace)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		line, info := lastLine(out.Bytes())
		var res struct {
			Correct   bool                       `json:"correct"`
			Attempted int                        `json:"attempted"`
			Failed    int                        `json:"failed"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal(line, &res); err != nil {
			return fmt.Errorf("seed %d: result line: %w", seed, err)
		}
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("seed %d: %d of %d ops failed", seed, res.Failed, res.Attempted)
		}
		fmt.Printf("run seed=%d attempted=%d %s\n", seed, res.Attempted, strings.Join(info, " | "))
		for name, raw := range res.Metrics {
			var m struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			}
			if err := json.Unmarshal(raw, &m); err != nil {
				return fmt.Errorf("seed %d: metric %s: %w", seed, name, err)
			}
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-28s %14s %14s %14s %8s  (%s, %d runs)\n", "metric", "q1", "median", "q3", "spread", o.workload, n)
	for _, name := range names {
		q1, med, q3, err := quartiles(values[name])
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		spread := (q3 - q1) / med
		fmt.Printf("%-28s %14.6g %14.6g %14.6g %7.2f%%  %s\n", name, q1, med, q3, 100*spread, units[name])
	}
	return nil
}

// lastLine splits a child's output into its result line and the
// informational lines (digest, sample counts) worth echoing.
func lastLine(out []byte) ([]byte, []string) {
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) == 0 {
		return nil, nil
	}
	var info []string
	for _, l := range lines[:len(lines)-1] {
		for _, prefix := range []string{"digest:", "samples:", "classes:"} {
			if strings.HasPrefix(l, prefix) {
				info = append(info, l)
			}
		}
	}
	return []byte(lines[len(lines)-1]), info
}
