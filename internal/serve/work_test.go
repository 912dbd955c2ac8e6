package serve

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"orderlight/internal/olerrors"
)

// fabricReq is a small multi-cell experiment job marked for the
// fabric.
func fabricReq() JobRequest {
	return JobRequest{
		Kind: KindExperiment, Experiment: "fig5",
		Config: testConfig(),
		Opts:   RunOpts{BytesPerChannel: 8 << 10, Fabric: true},
	}
}

// localReq is the same job executed on the local path, for parity.
func localReq() JobRequest {
	r := fabricReq()
	r.Opts.Fabric = false
	return r
}

// TestFabricInProcessByteIdentity runs a fabric job with two
// in-process workers driving the Local's WorkProvider surface
// directly, and proves the assembled table is byte-identical to the
// local execution path.
func TestFabricInProcessByteIdentity(t *testing.T) {
	ctx := context.Background()
	ref := localReq()
	want, err := Execute(ctx, &ref)
	if err != nil {
		t.Fatal(err)
	}

	svc := NewLocal(LocalConfig{Fabric: true, FabricChunk: 2})
	defer svc.Close()
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	for i := 0; i < 2; i++ {
		name := []string{"w1", "w2"}[i]
		go RunWorker(wctx, svc, WorkerOptions{Name: name, Poll: 10 * time.Millisecond, CheckpointDir: t.TempDir()})
	}

	id, err := svc.Submit(ctx, fabricReq())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Await(ctx, svc, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tables) != 1 || got.Tables[0].Markdown() != want.Tables[0].Markdown() {
		t.Fatalf("fabric table differs from local:\n--- local ---\n%s\n--- fabric ---\n%s",
			want.Tables[0].Markdown(), got.Tables[0].Markdown())
	}
}

// TestFabricOverHTTPLeaseExpiry runs the full wire path — daemon,
// HTTP client as WorkProvider — and simulates a worker death: one
// lease is taken and never completed, so its range must be re-issued
// after the TTL and finished by the surviving worker, with output
// still byte-identical to a local run.
func TestFabricOverHTTPLeaseExpiry(t *testing.T) {
	ctx := context.Background()
	ref := localReq()
	want, err := Execute(ctx, &ref)
	if err != nil {
		t.Fatal(err)
	}

	svc := NewLocal(LocalConfig{Fabric: true, FabricChunk: 1, LeaseTTL: 100 * time.Millisecond})
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()
	client := NewClient(srv.URL, nil)

	id, err := client.Submit(ctx, fabricReq())
	if err != nil {
		t.Fatal(err)
	}

	// The doomed worker leases one range and is never heard from again.
	for {
		l, err := client.LeaseWork(ctx, "doomed")
		if err != nil {
			t.Fatal(err)
		}
		if l != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	go RunWorker(wctx, client, WorkerOptions{Name: "survivor", Poll: 10 * time.Millisecond, CheckpointDir: t.TempDir()})

	got, err := Await(ctx, client, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tables) != 1 || got.Tables[0].Markdown() != want.Tables[0].Markdown() {
		t.Fatalf("fabric-over-HTTP table differs from local:\n--- local ---\n%s\n--- fabric ---\n%s",
			want.Tables[0].Markdown(), got.Tables[0].Markdown())
	}
}

// TestFabricAdmission pins the fabric validation rules and the
// coordinator-less rejections.
func TestFabricAdmission(t *testing.T) {
	ctx := context.Background()

	bad := []JobRequest{
		{Kind: KindKernel, Kernel: "add", Opts: RunOpts{Fabric: true}},
		func() JobRequest { r := fabricReq(); r.Opts.Manifest = true; return r }(),
		func() JobRequest { r := fabricReq(); r.Opts.CheckpointDir = t.TempDir(); return r }(),
	}
	for i, req := range bad {
		if err := req.Validate(); !errors.Is(err, olerrors.ErrInvalidSpec) {
			t.Fatalf("bad request %d validated: %v", i, err)
		}
	}

	// A fabric job on a coordinator-less service is rejected at Submit.
	svc := NewLocal(LocalConfig{})
	defer svc.Close()
	if _, err := svc.Submit(ctx, fabricReq()); !errors.Is(err, olerrors.ErrInvalidSpec) {
		t.Fatalf("fabric submit without coordinator = %v, want invalid-spec", err)
	}
	// And its work endpoints answer invalid-spec through the wire.
	srv := httptest.NewServer(NewHandler(&Fake{}))
	defer srv.Close()
	if _, err := NewClient(srv.URL, nil).LeaseWork(ctx, "w"); !errors.Is(err, olerrors.ErrInvalidSpec) {
		t.Fatalf("lease against non-fabric service = %v, want invalid-spec", err)
	}
}

// TestJobMemoization proves the daemon answers an identical request —
// from a different tenant — straight from the result cache, with
// byte-identical output.
func TestJobMemoization(t *testing.T) {
	ctx := context.Background()
	svc := NewLocal(LocalConfig{CacheDir: t.TempDir()})
	defer svc.Close()

	run := func(tenant string) *JobResult {
		req := localReq()
		req.Tenant = tenant
		id, err := svc.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Await(ctx, svc, id, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	first := run("alice")
	h0 := svc.Health()
	second := run("bob")
	h1 := svc.Health()

	if second.Tables[0].Markdown() != first.Tables[0].Markdown() {
		t.Fatal("memoized result differs from computed one")
	}
	if h1.CacheHits <= h0.CacheHits {
		t.Fatalf("second run hit nothing: hits %d -> %d", h0.CacheHits, h1.CacheHits)
	}
}

// TestJobMemoizableExclusions pins which jobs may never be memoized
// whole: anything that must genuinely run (fault campaigns and the
// sweeps embedding them, manifest runs recording fresh provenance,
// streaming/sampling runs).
func TestJobMemoizableExclusions(t *testing.T) {
	base := localReq()
	if !jobMemoizable(&base) {
		t.Fatal("plain experiment job should be memoizable")
	}
	cases := map[string]JobRequest{
		"fault-campaign": {Kind: KindFaultCampaign},
		"sweep":          {Kind: KindSweep},
		"manifest":       func() JobRequest { r := localReq(); r.Opts.Manifest = true; return r }(),
		"stream-trace":   {Kind: KindKernel, Kernel: "add", Opts: RunOpts{StreamTrace: true}},
	}
	for name, req := range cases {
		if jobMemoizable(&req) {
			t.Errorf("%s job must not be memoizable", name)
		}
	}
}

// TestJobCacheKeyScrubbing: execution tuning, tenancy, durability and
// transport must not split the memo key; the simulated workload must.
func TestJobCacheKeyScrubbing(t *testing.T) {
	base := localReq()
	key := jobCacheKey(&base)
	if key == "" {
		t.Fatal("empty job cache key")
	}
	same := []func(*JobRequest){
		func(r *JobRequest) { r.Tenant = "someone-else" },
		func(r *JobRequest) { r.Opts.Parallelism = 7 },
		func(r *JobRequest) { r.Opts.Retries = 3 },
		func(r *JobRequest) { r.Opts.CheckpointDir = "/tmp/x"; r.Opts.Resume = true },
		func(r *JobRequest) { r.Opts.Fabric = true },
		func(r *JobRequest) { r.Opts.CacheDir = "/tmp/y" },
	}
	for i, mut := range same {
		r := localReq()
		mut(&r)
		if got := jobCacheKey(&r); got != key {
			t.Errorf("mutation %d changed the key", i)
		}
	}
	diff := []func(*JobRequest){
		func(r *JobRequest) { r.Experiment = "fig10a" },
		func(r *JobRequest) { r.Opts.BytesPerChannel = 4 << 10 },
		func(r *JobRequest) { r.Opts.Engine = "dense" },
		func(r *JobRequest) { r.Config = nil },
	}
	for i, mut := range diff {
		r := localReq()
		mut(&r)
		if got := jobCacheKey(&r); got == key {
			t.Errorf("mutation %d should change the key", i)
		}
	}
}
