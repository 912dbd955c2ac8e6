// Command olserve is the simulation daemon: it exposes the library's
// job service over HTTP/JSON so figures and kernels can be simulated
// from anywhere that can speak curl. Results are byte-identical to
// in-process runs — the daemon funnels into the same execution path as
// the library facade.
//
//	POST   /v1/jobs             submit a kernel/experiment/sweep/fault-campaign job
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result job result (409 until terminal)
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/jobs/{id}/events lifecycle stream (server-sent events)
//	GET    /healthz             liveness, queue load, cache health
//	GET    /v1/version          protocol + toolchain versions
//
// SIGTERM and SIGINT drain gracefully: admission stops, queued jobs
// cancel, running jobs are preempted at their next cell boundary with
// their progress journaled. With -checkpoint-root, resubmitting the
// identical request to a restarted daemon resumes from the journal
// instead of starting over. With -cache-dir, completed cells and whole
// jobs memoize in a content-addressed result cache shared across
// tenants, so identical resubmissions are served without simulating.
//
// A daemon SIGKILLed mid-sweep loses its in-memory job store but not
// its -checkpoint-root journals: a client that resubmits the identical
// request to the restarted daemon (olbench -server does so on its own)
// replays the journaled cells and simulates only the rest.
//
// -chaos arms deterministic fault injection (seeded by -chaos-seed)
// against the daemon's own disk: every job's cell journal and the
// result cache write through the seeded sick filesystem. It exists to
// drill the recovery machinery — see `make smoke-chaos`.
//
// Usage:
//
//	olserve -addr localhost:8080 -checkpoint-root /var/tmp/olserve
//	olserve -addr localhost:0 -addr-file daemon.addr   # scripted port pick
//	olserve -addr localhost:8080 -cache-dir /var/tmp/olcache  # memoize results
//	olserve -cache-dir /var/tmp/olcache -cache-cap 1073741824  # 1 GiB LRU budget
//	olserve -checkpoint-root ck -chaos fs=0.1 -chaos-seed 7  # chaos-drilled disk
//	olserve -healthcheck http://localhost:8080          # probe; 0 up, 2 draining, 1 down
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"orderlight"
	"orderlight/internal/cliflags"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:8080", "listen address (port 0 picks a free port; see -addr-file)")
		addrFile = flag.String("addr-file", "", "write the actual listen address to this file once serving (for scripts using -addr with port 0)")

		queueDepth = flag.Int("queue-depth", 64, "bounded FIFO queue depth; submissions beyond it get 429")
		perTenant  = flag.Int("per-tenant", 0, "max queued+running jobs per tenant (0 = unlimited)")
		workers    = flag.Int("workers", 0, "concurrently executing jobs (0 = one per CPU)")

		ckptRoot     = flag.String("checkpoint-root", "", "give every job a checkpoint directory under this root keyed by request hash, so preempted jobs resume on resubmission")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for running jobs to reach a cell boundary")

		cacheDir = flag.String("cache-dir", "", "memoize completed cells and whole jobs in this content-addressed result cache, shared across tenants")

		cacheCap = flag.Int64("cache-cap", 0, "result cache disk budget in bytes; least-recently-used blobs evict beyond it (0 = unbounded; needs -cache-dir)")

		healthcheck   = flag.String("healthcheck", "", "client mode: poll BASE/healthz until healthy; exit 0 when up, 2 when draining, 1 when down (no daemon is started)")
		healthTimeout = flag.Duration("healthcheck-timeout", 10*time.Second, "how long -healthcheck polls before giving up")
	)
	chaosFlags := cliflags.RegisterChaos(flag.CommandLine)
	flag.Parse()

	if *healthcheck != "" {
		os.Exit(probe(*healthcheck, *healthTimeout))
	}
	chaosPlan, err := chaosFlags.Plan(func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	})
	if err != nil {
		fatal(err)
	}
	if *cacheCap != 0 && *cacheDir == "" {
		fatal(fmt.Errorf("-cache-cap bounds the on-disk result cache; it needs -cache-dir"))
	}
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

	svc := orderlight.NewLocalService(orderlight.LocalServiceConfig{
		QueueDepth:     *queueDepth,
		PerTenant:      *perTenant,
		Workers:        *workers,
		CheckpointRoot: *ckptRoot,
		CacheDir:       *cacheDir,
		CacheBytes:     *cacheCap,
		FS:             orderlight.NewChaosFS(chaosPlan, nil),
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	if *addrFile != "" {
		// Written after Listen succeeds, so a script that waits for the
		// file never reads an address nothing serves on.
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}
	srv := &http.Server{Handler: orderlight.NewServiceHandler(svc)}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "olserve: serving on http://%s (workers %d, queue %d)\n",
		ln.Addr(), *workers, *queueDepth)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "olserve: %v — draining (timeout %v)\n", sig, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "olserve:", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "olserve: shutdown:", err)
	}
	fmt.Fprintln(os.Stderr, "olserve: drained")
}

// probe polls the daemon's health endpoint until it answers or the
// deadline passes, and maps the answer to distinct exit codes so
// scripts and orchestrators can tell the states apart without curl:
// 0 the daemon is up and admitting, 2 it answers but is draining
// (shedding load on the way down — don't route new work, don't kill
// it either), 1 it cannot be reached at all.
func probe(base string, timeout time.Duration) int {
	client := orderlight.NewServiceClient(base, &http.Client{Timeout: 2 * time.Second})
	deadline := time.Now().Add(timeout)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		h, err := client.Healthz(ctx)
		cancel()
		if err == nil {
			fmt.Printf("olserve: %s (%d queued, %d running)\n", h.Status, h.Queued, h.Running)
			if h.Status == "draining" {
				return 2
			}
			return 0
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "olserve: %s unhealthy after %v: %v\n", base, timeout, err)
			return 1
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "olserve:", err)
	os.Exit(1)
}
