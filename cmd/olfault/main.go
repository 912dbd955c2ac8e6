// Command olfault runs ordering-fault injection campaigns against the
// simulator and classifies every run with the differential oracle.
//
// In campaign mode (the default) it executes the kernel × fault-class
// × seed grid of the "fault-campaign" experiment and prints the verdict
// matrix. Output is deterministic: the same seed yields byte-identical
// matrices across runs and across the dense and skip-ahead engines.
// olfault exits 0 only when the campaign sees zero escapes AND the
// pinned Figure 5 reproduction (drop/fence on add at full rate) is
// detected; any escape — a wrong answer the simulator's own
// verification failed to flag — is a simulator bug and exits 1.
//
// With -kernel/-class it instead injects a single run and prints its
// verdict.
//
// Usage:
//
//	olfault -seed 1 -campaign default
//	olfault -seed 1 -engine dense           # parity reference
//	olfault -kernel add -class drop -rate 1 # single faulted run
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"orderlight"
	"orderlight/internal/cliflags"
)

func main() {
	var (
		campaign = flag.String("campaign", "default", "campaign grid to run (only \"default\" exists)")
		seed     = flag.Uint64("seed", 1, "base fault seed; the campaign sweeps seed and seed+1")
		bytes    = flag.Int64("bytes", 0, "per-channel footprint override (0 = campaign default)")
		parallel = flag.Int("parallel", 0, "worker pool size (0 = one per CPU)")

		name  = flag.String("kernel", "", "single-run mode: Table 2 kernel name")
		class = flag.String("class", "", "single-run mode: fault class (drop|weaken|reorder|delay)")
		rate  = flag.Float64("rate", 1, "single-run mode: fault rate in (0,1]")
		delay = flag.Int64("delay", 0, "single-run mode: visibility delay in controller cycles (0 = default)")
		prim  = flag.String("primitive", "orderlight", "single-run mode: ordering primitive under attack (fence|orderlight|seqno)")
	)
	ckpt := cliflags.RegisterCheckpoint(flag.CommandLine)
	eng := cliflags.RegisterEngine(flag.CommandLine)
	rcache := cliflags.RegisterCache(flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := orderlight.DefaultConfig()
	cfg.Run.Seed = *seed
	var opts []orderlight.Option
	if *parallel > 0 {
		opts = append(opts, orderlight.WithParallelism(*parallel))
	}
	opts = append(opts, eng.Options()...)
	if *bytes > 0 {
		opts = append(opts, orderlight.WithScale(orderlight.Scale{BytesPerChannel: *bytes}))
	}
	opts = append(opts, ckpt.Options()...)
	// Accepted for CLI symmetry, but fault-injected cells are never
	// served from the cache — the oracle must genuinely re-attack.
	opts = append(opts, rcache.Options()...)

	if *name != "" || *class != "" {
		p, err := orderlight.ParsePrimitive(*prim)
		if err != nil {
			fatal(err)
		}
		cfg.Run.Primitive = p
		if err := single(ctx, cfg, *name, *class, *rate, *delay, *bytes, opts); err != nil {
			fatal(err)
		}
		return
	}

	if *campaign != "default" {
		fatal(fmt.Errorf("unknown campaign %q (only \"default\" exists)", *campaign))
	}
	t, sum, err := orderlight.RunFaultCampaignContext(ctx, cfg, opts...)
	if err != nil {
		fatal(err)
	}
	fmt.Print(t.Markdown())
	fmt.Printf("\n%s\n", sum)
	if sum.Escapes > 0 {
		fmt.Fprintf(os.Stderr, "olfault: %d escape(s) — wrong answers the verifier missed: %v\n",
			sum.Escapes, sum.EscapeKeys)
		os.Exit(1)
	}
	if !sum.PinnedDetected {
		fmt.Fprintln(os.Stderr, "olfault: pinned Figure 5 reproduction (add/drop/fence) was not detected")
		os.Exit(1)
	}
}

// single injects one faulted run and prints its verdict; a fault the
// oracle classifies as an escape exits 1, everything else exits 0.
func single(ctx context.Context, cfg orderlight.Config, name, class string, rate float64, delay, bytes int64, opts []orderlight.Option) error {
	if name == "" {
		name = "add"
	}
	if class == "" {
		return fmt.Errorf("single-run mode needs -class (drop|weaken|reorder|delay)")
	}
	fc, err := orderlight.ParseFaultClass(class)
	if err != nil {
		return err
	}
	if bytes <= 0 {
		bytes = 128 << 10
	}
	spec := orderlight.FaultSpec{Class: fc, Seed: cfg.Run.Seed, Rate: rate, Delay: delay}
	res, v, err := orderlight.RunFaultedKernelContext(ctx, cfg, name, bytes, spec, opts...)
	if err != nil {
		return err
	}
	fmt.Printf("kernel %s, fault %s\n", name, spec)
	fmt.Print(res)
	fmt.Printf("\nverdict: %s\n", v)
	if v.Outcome == orderlight.FaultEscape {
		fmt.Fprintln(os.Stderr, "olfault: escape — simulator bug")
		os.Exit(1)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "olfault:", err)
	os.Exit(1)
}
