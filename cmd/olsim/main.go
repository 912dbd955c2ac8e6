// Command olsim runs a single PIM kernel on the simulated machine and
// prints its measurements.
//
// olsim exits 0 only when the run completes and — with -verify, the
// default — the result matches the reference executor. A run that
// verifies incorrect (including the deliberately broken -primitive
// none demo) exits 1 with a diagnostic on stderr; pass -verify=false
// to observe an incorrect run's measurements without the failure exit.
//
// Usage:
//
//	olsim -kernel add -primitive orderlight -ts 1/8
//	olsim -kernel kmeans -primitive fence -bytes 262144
//	olsim -kernel add -primitive none -verify=false  # incorrect-run demo
//	olsim -kernel add -engine dense                  # dense parity-reference engine, identical output
//	olsim -kernel add -trace-out run.json            # Perfetto trace
//	olsim -kernel add -sample-every 1000 -sample-out run.csv
//	olsim -kernel add -cache-dir rc                  # memoize; identical reruns skip simulation
//	olsim -list                                      # list kernels
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"orderlight"
	"orderlight/internal/cliflags"
)

func main() {
	var (
		name     = flag.String("kernel", "add", "Table 2 kernel name")
		prim     = flag.String("primitive", "orderlight", "ordering primitive: none|fence|orderlight|seqno")
		ts       = flag.String("ts", "1/8", "temporary storage as a row-buffer fraction")
		bmf      = flag.Int("bmf", 16, "PIM bandwidth multiplication factor")
		bytes    = flag.Int64("bytes", 128<<10, "bytes per channel per data structure")
		channels = flag.Int("channels", 16, "memory channels")
		seed     = flag.Uint64("seed", 1, "deterministic seed")
		verify   = flag.Bool("verify", true, "check the result against the reference executor")
		hostKind = flag.String("host", "gpu", "host front end: gpu (SIMT warps) or cpu (OoO cores, §9)")
		spread   = flag.Bool("spread", false, "spread tiles across memory-groups")
		routes   = flag.Int("routes", 1, "adaptive interconnect routes per channel (§9 NoC divergence)")
		list     = flag.Bool("list", false, "list kernels and exit")

		traceOut    = flag.String("trace-out", "", "write a Perfetto/Chrome trace-event JSON of the run to this file")
		sampleEvery = flag.Int64("sample-every", 0, "sample counters every N core cycles (0 disables)")
		sampleOut   = flag.String("sample-out", "", "write the sampled time-series here (.json for JSON, else CSV; default stdout)")
		manifest    = flag.Bool("manifest", false, "print the run's provenance manifest as JSON")
	)
	eng := cliflags.RegisterEngine(flag.CommandLine)
	rcache := cliflags.RegisterCache(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, n := range orderlight.Kernels() {
			spec, _ := orderlight.KernelSpec(n)
			fmt.Printf("%-8s %-45s compute:memory %s\n", n, spec.Desc, spec.ComputeRatio)
		}
		return
	}

	cfg := orderlight.DefaultConfig()
	p, err := orderlight.ParsePrimitive(*prim)
	if err != nil {
		fatal(err)
	}
	cfg.Run.Primitive = p
	cfg.Run.Seed = *seed
	cfg.Run.Verify = *verify
	cfg.PIM.BMF = *bmf
	cfg.Memory.Channels = *channels
	if need := (*channels + cfg.GPU.WarpsPerSM - 1) / cfg.GPU.WarpsPerSM; need < cfg.GPU.PIMSMs {
		cfg.GPU.PIMSMs = need
	}
	tsBytes, err := cfg.TSFraction(*ts)
	if err != nil {
		fatal(err)
	}
	cfg.PIM.TSBytes = tsBytes
	cfg.GPU.IcntRoutes = *routes
	switch *hostKind {
	case "gpu":
		cfg.Host.Kind = orderlight.HostGPU
	case "cpu":
		cfg.Host.Kind = orderlight.HostCPU
	default:
		fatal(fmt.Errorf("unknown host kind %q", *hostKind))
	}

	spec, err := orderlight.KernelSpec(*name)
	if err != nil {
		fatal(err)
	}
	if *spread {
		spec = orderlight.SpreadTiles(spec)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := eng.Options()
	var sink *orderlight.PerfettoSink
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		sink = orderlight.NewPerfettoSink(f)
		opts = append(opts, orderlight.WithTraceSink(sink))
	}
	var sampler *orderlight.Sampler
	if *sampleEvery > 0 {
		sampler = orderlight.NewSampler(*sampleEvery)
		opts = append(opts, orderlight.WithSampler(sampler))
	}
	opts = append(opts, rcache.Options()...)
	start := time.Now()
	res, k, err := orderlight.RunSpecContext(ctx, cfg, spec, *bytes, opts...)
	wall := time.Since(start)
	if err != nil {
		fatal(err)
	}
	if sink != nil {
		if err := sink.Close(); err != nil {
			fatal(fmt.Errorf("trace %s: %w", *traceOut, err))
		}
		fmt.Fprintf(os.Stderr, "olsim: wrote %d events (%d dropped) to %s — open in ui.perfetto.dev\n",
			sink.Events(), sink.Dropped(), *traceOut)
	}
	if sampler != nil {
		if err := writeSamples(sampler, *sampleOut); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("kernel %s, primitive %v, TS %dB (N=%d), BMF %dx, %d channels\n",
		*name, cfg.Run.Primitive, cfg.PIM.TSBytes, cfg.CommandsPerTile(), cfg.PIM.BMF, cfg.Memory.Channels)
	fmt.Printf("GPU-baseline (roofline): %.4f ms\n\n", orderlight.HostBaseline(cfg, k))
	fmt.Print(res)
	if *manifest {
		m := orderlight.Manifest{
			Cell:            spec.Name,
			Kernel:          spec.Name,
			Primitive:       cfg.Run.Primitive.String(),
			Seed:            cfg.Run.Seed,
			Channels:        cfg.Memory.Channels,
			TSBytes:         cfg.PIM.TSBytes,
			BMF:             cfg.PIM.BMF,
			BytesPerChannel: *bytes,
			ConfigHash:      orderlight.ConfigHash(cfg),
			Engine:          eng.EngineName(),
			WallMS:          float64(wall.Nanoseconds()) / 1e6,
			GoVersion:       runtime.Version(),
		}
		fmt.Printf("\nmanifest: %s\n", m.JSON())
	}
	if *verify && !res.Correct {
		fmt.Fprintf(os.Stderr, "olsim: kernel %s under primitive %v failed functional verification\n",
			*name, cfg.Run.Primitive)
		os.Exit(1)
	}
}

// writeSamples renders the sampled time-series: JSON when the path ends
// in .json, CSV otherwise, stdout when no path is given.
func writeSamples(s *orderlight.Sampler, path string) error {
	var out []byte
	if strings.HasSuffix(path, ".json") {
		b, err := s.JSON()
		if err != nil {
			return err
		}
		out = append(b, '\n')
	} else {
		out = []byte(s.CSV())
	}
	if path == "" {
		_, err := os.Stdout.Write(out)
		return err
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "olsim: wrote %d samples to %s\n", len(s.Samples()), path)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "olsim:", err)
	os.Exit(1)
}
