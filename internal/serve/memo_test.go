package serve

import (
	"context"
	"testing"
)

// expReq is a small multi-cell experiment job.
func expReq() JobRequest {
	return JobRequest{
		Kind: KindExperiment, Experiment: "fig5",
		Config: testConfig(),
		Opts:   RunOpts{BytesPerChannel: 8 << 10},
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
		req := expReq()
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
	base := expReq()
	if !jobMemoizable(&base) {
		t.Fatal("plain experiment job should be memoizable")
	}
	cases := map[string]JobRequest{
		"fault-campaign": {Kind: KindFaultCampaign},
		"sweep":          {Kind: KindSweep},
		"manifest":       func() JobRequest { r := expReq(); r.Opts.Manifest = true; return r }(),
		"stream-trace":   {Kind: KindKernel, Kernel: "add", Opts: RunOpts{StreamTrace: true}},
	}
	for name, req := range cases {
		if jobMemoizable(&req) {
			t.Errorf("%s job must not be memoizable", name)
		}
	}
}

// TestJobCacheKeyScrubbing: execution tuning, tenancy and durability
// must not split the memo key; the simulated workload must.
func TestJobCacheKeyScrubbing(t *testing.T) {
	base := expReq()
	key := jobCacheKey(&base)
	if key == "" {
		t.Fatal("empty job cache key")
	}
	same := []func(*JobRequest){
		func(r *JobRequest) { r.Tenant = "someone-else" },
		func(r *JobRequest) { r.Opts.Parallelism = 7 },
		func(r *JobRequest) { r.Opts.Retries = 3 },
		func(r *JobRequest) { r.Opts.CheckpointDir = "/tmp/x"; r.Opts.Resume = true },
		func(r *JobRequest) { r.Opts.CacheDir = "/tmp/y" },
	}
	for i, mut := range same {
		r := expReq()
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
		r := expReq()
		mut(&r)
		if got := jobCacheKey(&r); got == key {
			t.Errorf("mutation %d should change the key", i)
		}
	}
}
