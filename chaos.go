package orderlight

import (
	"context"
	"net/http"

	"orderlight/internal/chaos"
	"orderlight/internal/serve"
)

// This file is the public face of the infrastructure chaos harness
// (internal/chaos): deterministic, seed-driven fault injection for the
// serve/journal/cache plane. One ChaosPlan drives both a transport
// wrapper (connection resets, timeouts, envelope-less 5xx, garbage
// bodies, duplicate deliveries, delays) and a filesystem shim (ENOSPC,
// torn writes, fsync failures, rename races) — every decision a pure
// function of (seed, op index), so a failing run replays exactly from
// its seed. The CLIs expose it as -chaos / -chaos-seed.

// ChaosSpec describes which fault classes a chaos plan arms and at
// what rates; parse one with ParseChaosSpec.
type ChaosSpec = chaos.Spec

// ChaosPlan is a live chaos plan shared by every injector of one
// process. A nil *ChaosPlan injects nothing.
type ChaosPlan = chaos.Plan

// ChaosFS is the injectable filesystem seam the durability layers
// (progress journals, result-cache blobs) write through. The real
// filesystem is the nil/default; NewChaosFS wraps one with seeded
// fault injection.
type ChaosFS = chaos.FS

// ParseChaosSpec parses a chaos plan description: comma-separated
// class=rate pairs ("reset=0.2,enospc=0.1"), with "net=R" and "fs=R"
// group shorthands. "" and "none" parse to the inactive zero spec.
// The seed travels separately (ChaosSpec.Seed / -chaos-seed).
func ParseChaosSpec(s string) (ChaosSpec, error) { return chaos.ParseSpec(s) }

// NewChaosPlan materializes a spec into a live plan. logf, when
// non-nil, receives one line per injected fault ("chaos: net #12
// reset") — the replayable trace the smoke drill diffs across runs.
// An inactive spec yields a nil plan, which every injector accepts.
func NewChaosPlan(s ChaosSpec, logf func(format string, args ...any)) (*ChaosPlan, error) {
	return chaos.NewPlan(s, logf)
}

// ChaosTransport wraps an http.RoundTripper with the plan's seeded
// network-fault injection; base nil means http.DefaultTransport, and
// a nil plan returns base unchanged.
func ChaosTransport(p *ChaosPlan, base http.RoundTripper) http.RoundTripper {
	return chaos.Transport(p, base)
}

// NewChaosFS wraps a filesystem with the plan's seeded write-path
// fault injection; base nil means the real filesystem, and a nil plan
// returns base unchanged. Reads are never faulted — damage is
// injected on the write path and discovered at read-back.
func NewChaosFS(p *ChaosPlan, base ChaosFS) ChaosFS { return chaos.NewFS(p, base) }

// WithChaosFS routes the run's durability writes (the progress
// journal, result-cache blobs) through fs — typically a NewChaosFS
// sick disk. In-process runs only; it never crosses the wire to a
// daemon, whose disks are its own.
func WithChaosFS(fs ChaosFS) Option {
	return func(o *RunOpts) { o.FS = fs }
}

// ServiceRetryPolicy tunes a ServiceClient's transient-failure retry
// loop; arm it with ServiceClient.EnableRetry. Retried submissions are
// stamped with a content-derived idempotency key so duplicate
// deliveries collapse onto one job.
type ServiceRetryPolicy = serve.RetryPolicy

// ServiceHealth is the daemon's /healthz payload: status ("ok" or
// "draining"), queue load, and cache counters and degrade flag.
type ServiceHealth = serve.HealthInfo

// SubmitAndAwaitJob is Submit followed by AwaitJob, hardened against a
// daemon restart: when the job vanishes mid-wait (the daemon lost its
// in-memory job store), the identical request is resubmitted and
// awaited again — with a retry-armed client and a daemon run with a
// checkpoint root, the resubmission lands on the job's cell journal and
// completed cells are not re-run.
func SubmitAndAwaitJob(ctx context.Context, svc Service, req JobRequest, onEvent func(WatchEvent)) (*JobResult, error) {
	return serve.SubmitAndAwait(ctx, svc, req, onEvent)
}
