package orderlight

import (
	"context"
	"net/http"

	"orderlight/internal/serve"
)

// Service is the job-oriented face of the simulator: submit a kernel,
// experiment, sweep or fault-campaign job, observe it, collect its
// result. The Run* facade functions are thin adapters over an
// in-process Service; olserve exposes one over HTTP; ServiceClient
// talks to a remote daemon through the same interface.
type Service = serve.Service

// LocalService is the production Service: a bounded FIFO job queue in
// front of the runner engine with admission control, per-tenant
// quotas, graceful drain and checkpoint-backed preemption.
type LocalService = serve.Local

// LocalServiceConfig tunes a LocalService (queue depth, per-tenant
// quota, worker count, checkpoint root for preemptible jobs and result
// cache directory).
type LocalServiceConfig = serve.LocalConfig

// FakeService is the injectable Service for tests: scriptable
// admission failures, latencies and outcomes, no engine underneath.
type FakeService = serve.Fake

// ServiceClient implements Service against a remote olserve daemon.
type ServiceClient = serve.Client

// Job types shared between the facade and the HTTP wire format.
type (
	// JobID identifies one submitted job.
	JobID = serve.JobID
	// JobState is a job's lifecycle position; see the Job* constants.
	JobState = serve.JobState
	// JobKind selects what a job simulates; see the Job*Kind constants.
	JobKind = serve.JobKind
	// JobError is the wire form of a job failure: a sentinel code plus
	// message. errors.Is matches it against the Err* sentinels on both
	// sides of the HTTP boundary.
	JobError = serve.JobError
	// JobRequest describes one job (kind, payload, config, options).
	JobRequest = serve.JobRequest
	// JobStatus is a job's observable state.
	JobStatus = serve.JobStatus
	// JobResult is everything a completed job produced.
	JobResult = serve.JobResult
	// WatchEvent is one item in a job's Watch stream.
	WatchEvent = serve.WatchEvent
)

// Job lifecycle states: queued -> running -> done | failed | canceled.
const (
	JobQueued   = serve.StateQueued
	JobRunning  = serve.StateRunning
	JobDone     = serve.StateDone
	JobFailed   = serve.StateFailed
	JobCanceled = serve.StateCanceled
)

// Job kinds.
const (
	JobKernel        = serve.KindKernel
	JobSpec          = serve.KindSpec
	JobExperiment    = serve.KindExperiment
	JobSweep         = serve.KindSweep
	JobFaultCampaign = serve.KindFaultCampaign
)

// Service-level sentinels, matched with errors.Is like the simulation
// sentinels above. The daemon maps the first two to HTTP 429, draining
// to 503, unknown-job to 404 and not-finished to 409.
var (
	ErrQueueFull     = serve.ErrQueueFull
	ErrQuotaExceeded = serve.ErrQuotaExceeded
	ErrDraining      = serve.ErrDraining
	ErrUnknownJob    = serve.ErrUnknownJob
	ErrNotFinished   = serve.ErrNotFinished
)

// NewLocalService creates a production job service and starts its
// workers. Close (or Drain) it when done.
func NewLocalService(cfg LocalServiceConfig) *LocalService {
	return serve.NewLocal(cfg)
}

// NewFakeService creates an empty scripted fake for tests.
func NewFakeService() *FakeService { return serve.NewFake() }

// NewServiceHandler mounts a Service on the /v1 JSON protocol (see
// cmd/olserve). Pass any Service — a LocalService in the daemon, a
// FakeService in handler tests.
func NewServiceHandler(svc Service) http.Handler { return serve.NewHandler(svc) }

// NewServiceClient returns a Service speaking to the daemon at base
// (e.g. "http://localhost:8080"). A nil *http.Client uses
// http.DefaultClient.
func NewServiceClient(base string, hc *http.Client) *ServiceClient {
	return serve.NewClient(base, hc)
}

// AwaitJob blocks until the job reaches a terminal state and returns
// its result or error. onEvent, when non-nil, observes every watch
// event along the way. A canceled ctx cancels the job.
func AwaitJob(ctx context.Context, svc Service, id JobID, onEvent func(WatchEvent)) (*JobResult, error) {
	return serve.Await(ctx, svc, id, onEvent)
}
