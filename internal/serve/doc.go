// Package serve is the simulation-as-a-service layer: a Service
// interface (Submit/Status/Result/Cancel/Watch) over the runner engine,
// a production Local implementation with a bounded FIFO job queue,
// admission control, per-tenant quotas, graceful drain and
// checkpoint-backed preemption, an injectable Fake with scriptable
// failures for handler and client tests, and an HTTP/JSON transport
// (handler + client) that the olserve daemon mounts.
//
// Every caller of the simulator — the library facade in the root
// package, the CLIs, and the daemon — funnels through one code path:
// a JobRequest validated by Validate and executed by Execute. That is
// what keeps a figure regenerated over HTTP byte-identical to one
// regenerated in process.
//
// # Result cache
//
// A Local built with LocalConfig.CacheDir opens one rcache.Cache and
// shares it across every job and tenant, at two granularities. Each
// cell a job simulates is memoized individually (internal/runner
// consults the cache before executing a cell), so a resubmission that
// overlaps an earlier sweep skips the overlapping cells. Whole jobs
// additionally memoize under a key derived from the scrubbed request:
// a byte-identical resubmission — even from a different tenant — is
// answered without touching the engine at all. Jobs whose outputs are
// not pure functions of the request (manifests, trace sinks, fault
// campaigns) are never memoized; Health reports hit/miss counters.
//
// # Crash and restart
//
// A Local built with LocalConfig.CheckpointRoot gives every cycle-engine
// job a cell journal keyed by the request's content hash. A daemon that
// is drained or killed outright loses its in-memory job store but not
// those journals: SubmitAndAwait resubmits the identical request when
// the job vanishes (ErrUnknownJob), the restarted daemon lands it on
// the same journal, and only the unfinished cells simulate. The output
// stays byte-identical to a run that was never interrupted.
//
// The Manager-interface + injectable-fake idiom follows Navarch's
// pkg/gpu: the Service interface is small enough to fake completely,
// so the HTTP layer and its clients are tested without ever spinning
// the cycle-level engine.
package serve
