// Command olbench regenerates the paper's tables and figures.
//
// Experiment cells (kernel x primitive x scale) execute on a worker
// pool — one worker per CPU unless -parallel says otherwise — and the
// output is byte-identical to a sequential (-parallel 1) run. Ctrl-C
// cancels the sweep at the next cell boundary.
//
// Usage:
//
//	olbench -exp fig10a                # one experiment, markdown to stdout
//	olbench -exp all -format csv       # everything, CSV
//	olbench -exp all -progress         # live cell counter on stderr
//	olbench -exp all -parallel 1       # sequential reference run
//	olbench -exp fig12 -engine dense   # dense parity-reference engine, identical output
//	olbench -exp fig12 -size 262144    # bigger per-channel footprint
//	olbench -exp all -manifest         # attach provenance manifests
//	olbench -exp all -debug-addr :6060 # pprof + expvar while it runs
//	olbench -exp all -checkpoint-dir ck          # journal each finished cell
//	olbench -exp all -checkpoint-dir ck -resume  # replay journaled cells, simulate the rest
//	olbench -exp all -retries 2 -cell-timeout 5m # retry/watchdog flaky cells
//	olbench -exp fig5 -server http://localhost:8080  # run on an olserve daemon
//	olbench -exp all -cache-dir rc     # memoize cells; an identical rerun simulates nothing
//	olbench -exp fig5 -chaos fs=0.2 -chaos-seed 7 -cache-dir rc  # seeded fault injection drill
//	olbench -list                      # list experiment IDs
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"orderlight"
	"orderlight/internal/cliflags"
)

// Sweep progress counters, exported at /debug/vars when -debug-addr
// serves the expvar handler.
var (
	cellsDone  = expvar.NewInt("olbench_cells_done")
	cellsTotal = expvar.NewInt("olbench_cells_total")
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment ID or 'all'")
		size     = flag.Int64("size", 0, "bytes per channel per data structure (0 = default)")
		format   = flag.String("format", "md", "output format: md, csv or chart")
		chartCol = flag.Int("chartcol", -1, "column to chart (chart format; -1 = first numeric)")
		channels = flag.Int("channels", 0, "override memory channel count (0 = Table 1's 16)")
		ts       = flag.String("ts", "", "override temporary-storage fraction, e.g. 1/8")
		parallel = flag.Int("parallel", 0, "worker pool size (0 = one per CPU, 1 = sequential)")
		progress = flag.Bool("progress", false, "report completed cells on stderr")
		cache    = flag.Bool("cache", true, "share built kernel images between identical cells")
		list     = flag.Bool("list", false, "list experiments and exit")

		manifest  = flag.Bool("manifest", false, "attach provenance manifests to every table (adds wall-clock times, so output is no longer byte-stable)")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof and expvar on this address while the sweep runs, e.g. localhost:6060 (empty disables)")

		server = flag.String("server", "", "submit the experiment to an olserve daemon at this base URL instead of simulating in process (output is byte-identical)")
		tenant = flag.String("tenant", "", "tenant name for the daemon's admission quotas (-server mode)")

		retries  = flag.Int("retries", 0, "retry transiently failing cells (panic, deadline, timeout) up to N times with backoff")
		cellTime = flag.Duration("cell-timeout", 0, "per-cell wall-clock watchdog; a cell running longer fails as a timeout (0 disables)")
	)
	ckpt := cliflags.RegisterCheckpoint(flag.CommandLine)
	eng := cliflags.RegisterEngine(flag.CommandLine)
	rcache := cliflags.RegisterCache(flag.CommandLine)
	chaosFlags := cliflags.RegisterChaos(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, id := range orderlight.Experiments() {
			fmt.Printf("%-24s %s\n", id, orderlight.ExperimentTitle(id))
		}
		return
	}

	cfg := orderlight.DefaultConfig()
	if *channels > 0 {
		cfg.Memory.Channels = *channels
		if need := (*channels + cfg.GPU.WarpsPerSM - 1) / cfg.GPU.WarpsPerSM; need < cfg.GPU.PIMSMs {
			cfg.GPU.PIMSMs = need
		}
	}
	if *ts != "" {
		tsBytes, err := cfg.TSFraction(*ts)
		if err != nil {
			fatal(err)
		}
		cfg.PIM.TSBytes = tsBytes
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	chaosPlan, err := chaosFlags.Plan(func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	})
	if err != nil {
		fatal(err)
	}

	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "olbench: debug server on http://%s/debug/pprof/ and /debug/vars\n", ln.Addr())
		// DefaultServeMux carries the pprof and expvar handlers; the
		// server dies with the process.
		go http.Serve(ln, nil) //nolint:errcheck
	}

	var cells int
	opts := []orderlight.Option{
		orderlight.WithScale(orderlight.Scale{BytesPerChannel: *size}),
		orderlight.WithParallelism(*parallel),
		orderlight.WithKernelCache(*cache),
	}
	opts = append(opts, eng.Options()...)
	if chaosPlan != nil {
		// Local chaos: the run's durability writes (checkpoint journal,
		// result-cache blobs) go through the plan's seeded sick disk.
		opts = append(opts, orderlight.WithChaosFS(orderlight.NewChaosFS(chaosPlan, nil)))
	}
	if *manifest {
		opts = append(opts, orderlight.WithManifest())
	}
	opts = append(opts, ckpt.Options()...)
	if n := leftoverCheckpoints(ckpt.Dir); n > 0 {
		fmt.Fprintf(os.Stderr, "olbench: ignoring %d mid-cell checkpoint file(s) (*.ckpt, *.tmp) in %s; only journal.jsonl is resumed\n", n, ckpt.Dir)
	}
	opts = append(opts, rcache.Options()...)
	if *retries > 0 {
		opts = append(opts, orderlight.WithCellRetries(*retries))
	}
	if *cellTime > 0 {
		opts = append(opts, orderlight.WithCellTimeout(*cellTime))
	}
	if *progress {
		opts = append(opts, orderlight.WithProgress(func(done, total int) {
			cells = total
			cellsDone.Set(int64(done))
			cellsTotal.Set(int64(total))
			fmt.Fprintf(os.Stderr, "\rolbench: %d/%d cells", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}))
	} else {
		opts = append(opts, orderlight.WithProgress(func(done, total int) {
			cells = total
			cellsDone.Set(int64(done))
			cellsTotal.Set(int64(total))
		}))
	}

	start := time.Now()
	var tables []*orderlight.Table
	switch {
	case *server != "":
		if ckpt.Active() {
			fatal(fmt.Errorf("-checkpoint-dir/-resume are local paths; the daemon manages its own checkpoints (-checkpoint-root)"))
		}
		if rcache.Active() {
			fatal(fmt.Errorf("-cache-dir is a local path; the daemon manages its own cache (olserve -cache-dir)"))
		}
		tables, err = remote(ctx, *server, *tenant, *exp, cfg, orderlight.RunOpts{
			Parallelism:     *parallel,
			Engine:          eng.Name,
			NoKernelCache:   !*cache,
			BytesPerChannel: *size,
			Manifest:        *manifest,
			Retries:         *retries,
			CellTimeout:     *cellTime,
		}, &cells, chaosPlan)
	case *exp == "all":
		tables, err = orderlight.RunAllExperimentsContext(ctx, cfg, opts...)
	default:
		var t *orderlight.Table
		t, err = orderlight.RunExperimentContext(ctx, *exp, cfg, opts...)
		tables = []*orderlight.Table{t}
	}
	if err != nil {
		if errors.Is(err, orderlight.ErrCanceled) {
			fmt.Fprintln(os.Stderr, "olbench: canceled")
			os.Exit(130)
		}
		fatal(err)
	}

	for _, t := range tables {
		switch *format {
		case "csv":
			fmt.Println("# " + t.ID + ": " + t.Title)
			fmt.Print(t.CSV())
			for _, m := range t.Manifests {
				fmt.Println("# manifest: " + m.JSON())
			}
		case "chart":
			col := *chartCol
			if col < 0 {
				col = t.DefaultChartColumn()
			}
			fmt.Println(t.Chart(col))
		default:
			fmt.Println(t.Markdown())
			if mm := t.ManifestMarkdown(); mm != "" {
				fmt.Println(mm)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "olbench: %d experiment(s), %d cells in %.1fs (parallelism %s)\n",
		len(tables), cells, time.Since(start).Seconds(), parallelismLabel(*parallel))
}

// leftoverCheckpoints counts the *.ckpt and *.tmp files an older build
// left in a checkpoint directory. Resume reads only the cell journal, so
// these are neither read nor deleted.
func leftoverCheckpoints(dir string) int {
	if dir == "" {
		return 0
	}
	ck, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	return len(ck) + len(tmp)
}

// remote submits the experiment (or full sweep) to an olserve daemon
// and waits on its event stream. The daemon runs the exact same
// execution path as the in-process entry points, so the rendered
// tables are byte-identical to a local run — `olbench` output can be
// diffed across the two modes. The client retries transient transport
// failures with idempotent submissions and resubmits if the daemon
// restarts mid-wait, so a chaos-wrapped (or genuinely flaky) link
// still yields the one result; -chaos here injects faults into this
// client's own connection, not into the daemon.
func remote(ctx context.Context, base, tenant, exp string, cfg orderlight.Config, ro orderlight.RunOpts, cells *int, plan *orderlight.ChaosPlan) ([]*orderlight.Table, error) {
	req := orderlight.JobRequest{Kind: orderlight.JobSweep, Tenant: tenant, Config: &cfg, Opts: ro}
	if exp != "all" {
		req.Kind = orderlight.JobExperiment
		req.Experiment = exp
	}
	// No client timeout: a full sweep legitimately runs for minutes and
	// the events stream stays open throughout.
	svc := orderlight.NewServiceClient(base, &http.Client{Transport: orderlight.ChaosTransport(plan, nil)})
	svc.EnableRetry(orderlight.ServiceRetryPolicy{Attempts: 5, Logf: func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "olbench: "+format+"\n", args...)
	}})
	res, err := orderlight.SubmitAndAwaitJob(ctx, svc, req, func(ev orderlight.WatchEvent) {
		if ev.Type != "progress" {
			return
		}
		*cells = ev.Total
		cellsDone.Set(int64(ev.Done))
		cellsTotal.Set(int64(ev.Total))
	})
	if err != nil {
		return nil, err
	}
	return res.Tables, nil
}

func parallelismLabel(n int) string {
	if n <= 0 {
		return "all CPUs"
	}
	return fmt.Sprintf("%d", n)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "olbench:", err)
	os.Exit(1)
}
