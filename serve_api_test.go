package orderlight_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"orderlight"
)

// startDaemon spins a production service behind a real HTTP server and
// returns a client for it — the public-API equivalent of running
// olserve.
func startDaemon(t *testing.T, cfg orderlight.LocalServiceConfig) *orderlight.ServiceClient {
	t.Helper()
	svc := orderlight.NewLocalService(cfg)
	srv := httptest.NewServer(orderlight.NewServiceHandler(svc))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return orderlight.NewServiceClient(srv.URL, srv.Client())
}

// TestServiceParityWithFacade is the acceptance gate of the serving
// layer: a figure requested from a daemon over HTTP renders
// byte-identically to the same figure computed with the plain library
// facade.
func TestServiceParityWithFacade(t *testing.T) {
	cfg := apiConfig()
	want, err := orderlight.RunExperiment("fig5", cfg, orderlight.Scale{})
	if err != nil {
		t.Fatal(err)
	}

	client := startDaemon(t, orderlight.LocalServiceConfig{Workers: 2})
	ctx := context.Background()
	id, err := client.Submit(ctx, orderlight.JobRequest{
		Kind: orderlight.JobExperiment, Experiment: "fig5", Config: &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := orderlight.AwaitJob(ctx, client, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Tables[0].Markdown(); got != want.Markdown() {
		t.Fatalf("daemon fig5 differs from facade fig5:\n--- daemon ---\n%s\n--- facade ---\n%s", got, want.Markdown())
	}
}

// TestServiceSentinelsAcrossHTTP pins the JobError round trip: the
// sentinels a failure classifies under in process still match with
// errors.Is after crossing the wire as {code, message}.
func TestServiceSentinelsAcrossHTTP(t *testing.T) {
	client := startDaemon(t, orderlight.LocalServiceConfig{})
	ctx := context.Background()
	cfg := apiConfig()

	if _, err := client.Submit(ctx, orderlight.JobRequest{
		Kind: orderlight.JobKernel, Kernel: "not-a-kernel", Config: &cfg,
	}); !errors.Is(err, orderlight.ErrUnknownKernel) {
		t.Fatalf("bad kernel over HTTP = %v, want ErrUnknownKernel", err)
	}
	if _, err := client.Submit(ctx, orderlight.JobRequest{
		Kind: orderlight.JobExperiment, Experiment: "fig99", Config: &cfg,
	}); !errors.Is(err, orderlight.ErrUnknownExperiment) {
		t.Fatalf("bad experiment over HTTP = %v, want ErrUnknownExperiment", err)
	}
	if _, err := client.Status(ctx, "job-000099"); !errors.Is(err, orderlight.ErrUnknownJob) {
		t.Fatalf("unknown job over HTTP = %v, want ErrUnknownJob", err)
	}

	// A runtime failure: a sweep canceled by the client fails with the
	// cancellation sentinel, and its wire code crosses back intact.
	id, err := client.Submit(ctx, orderlight.JobRequest{
		Kind: orderlight.JobExperiment, Experiment: "fig12", Config: &cfg,
		Opts: orderlight.RunOpts{Parallelism: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Cancel(ctx, id); err != nil {
		t.Fatal(err)
	}
	if _, err := orderlight.AwaitJob(ctx, client, id, nil); !errors.Is(err, orderlight.ErrCanceled) {
		t.Fatalf("canceled job over HTTP = %v, want ErrCanceled", err)
	}
	st, err := client.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != orderlight.JobCanceled || st.Error == nil || st.Error.Code != "canceled" {
		t.Fatalf("canceled status = %+v", st)
	}
}

// TestFacadeRunsOnService pins the adapter wiring: the Run* facade is
// a client of the same Service machinery, so a facade sweep and a
// direct service sweep agree byte for byte.
func TestFacadeRunsOnService(t *testing.T) {
	cfg := apiConfig()
	ctx := context.Background()

	facade, err := orderlight.RunExperimentContext(ctx, "table2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc := orderlight.NewLocalService(orderlight.LocalServiceConfig{})
	defer svc.Close()
	id, err := svc.Submit(ctx, orderlight.JobRequest{
		Kind: orderlight.JobExperiment, Experiment: "table2", Config: &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := orderlight.AwaitJob(ctx, svc, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tables[0].Markdown() != facade.Markdown() {
		t.Fatal("facade and direct service disagree on table2")
	}
}
