package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"orderlight/internal/chaos"
	"orderlight/internal/olerrors"
)

// flakyHandler wraps a real daemon handler behind a gate that fails
// the first fails requests with an envelope-less plain-text 500 — the
// dying-proxy failure the client's retry loop exists for.
func flakyHandler(inner http.Handler, fails int) (http.Handler, *atomic.Int64) {
	var seen atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) <= int64(fails) {
			http.Error(w, "bad gateway fumes", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}), &seen
}

// With retry armed, envelope-less 5xx answers are retried until the
// daemon responds, and the whole submit/await path completes.
func TestClientRetryTransient500(t *testing.T) {
	svc := NewLocal(LocalConfig{})
	defer svc.Close()
	h, seen := flakyHandler(NewHandler(svc), 2)
	srv := httptest.NewServer(h)
	defer srv.Close()

	client := NewClient(srv.URL, srv.Client())
	client.EnableRetry(RetryPolicy{Attempts: 5, Base: time.Millisecond})
	ctx := context.Background()

	id, err := client.Submit(ctx, kernelReq("add"))
	if err != nil {
		t.Fatalf("Submit through flaky front end: %v", err)
	}
	res, err := Await(ctx, client, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run == nil || !res.Run.Correct {
		t.Fatalf("result = %+v", res)
	}
	if seen.Load() < 3 {
		t.Fatalf("server saw %d requests, want the 2 failures plus retries", seen.Load())
	}
}

// A 500 that carries a valid error envelope is the daemon speaking —
// a terminal job error, not a transport loss — and is never retried.
func TestClientEnvelopeErrorNotRetried(t *testing.T) {
	var seen atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen.Add(1)
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: WireError(
			fmt.Errorf("serve: %w: job gone", olerrors.ErrCanceled))})
	}))
	defer srv.Close()

	client := NewClient(srv.URL, srv.Client())
	client.EnableRetry(RetryPolicy{Attempts: 5, Base: time.Millisecond})
	_, err := client.Status(context.Background(), "j1")
	if !errors.Is(err, olerrors.ErrCanceled) {
		t.Fatalf("err = %v, want the envelope's ErrCanceled", err)
	}
	if seen.Load() != 1 {
		t.Fatalf("enveloped error was retried: %d requests", seen.Load())
	}
}

// Retry gives up after Attempts tries and reports the last failure.
func TestClientRetryExhausted(t *testing.T) {
	var seen atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen.Add(1)
		http.Error(w, "still dead", http.StatusInternalServerError)
	}))
	defer srv.Close()

	client := NewClient(srv.URL, srv.Client())
	client.EnableRetry(RetryPolicy{Attempts: 3, Base: time.Millisecond})
	_, err := client.Status(context.Background(), "j1")
	if err == nil || !strings.Contains(err.Error(), "still dead") {
		t.Fatalf("err = %v", err)
	}
	if seen.Load() != 3 {
		t.Fatalf("server saw %d requests, want exactly Attempts=3", seen.Load())
	}
}

// A retry-armed client stamps submissions with a content-derived
// idempotency key, and injected duplicate deliveries (chaos ClassDup)
// land on one job.
func TestClientDupDeliveryCollapses(t *testing.T) {
	svc := NewLocal(LocalConfig{})
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	spec, err := chaos.ParseSpec("dup=1.0")
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = 7
	plan, err := chaos.NewPlan(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	hc := &http.Client{Transport: chaos.Transport(plan, nil)}
	client := NewClient(srv.URL, hc)
	client.EnableRetry(RetryPolicy{Attempts: 3, Base: time.Millisecond})
	ctx := context.Background()

	id, err := client.Submit(ctx, kernelReq("add"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Await(ctx, client, id, nil); err != nil {
		t.Fatal(err)
	}
	svc.mu.Lock()
	got := len(svc.jobs)
	svc.mu.Unlock()
	if got != 1 {
		t.Fatalf("duplicated submit created %d jobs, want 1", got)
	}
}

// Local collapses same-key submissions onto the live job, but a
// distinct key (or no key) always creates a fresh one.
func TestLocalIdempotentSubmit(t *testing.T) {
	svc := NewLocal(LocalConfig{Workers: 1})
	defer svc.Close()
	ctx := context.Background()

	req := kernelReq("add")
	req.IdempotencyKey = "idem-test1"
	id1, err := svc.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := svc.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("same-key submits produced %s and %s", id1, id2)
	}
	other := kernelReq("add")
	other.IdempotencyKey = "idem-test2"
	id3, err := svc.Submit(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	if id3 == id1 {
		t.Fatal("distinct keys collapsed onto one job")
	}
	if _, err := Await(ctx, svc, id1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Await(ctx, svc, id3, nil); err != nil {
		t.Fatal(err)
	}
	// The job is done but still tracked: a retried delivery of the
	// original submission must keep mapping to it.
	id4, err := svc.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if id4 != id1 {
		t.Fatalf("post-completion duplicate created new job %s, want %s", id4, id1)
	}
}

// unknownJobService fails the first Result/Watch cycle like a daemon
// that restarted and lost its job store, then delegates to a real
// Local — the scenario SubmitAndAwait exists for.
type unknownJobService struct {
	*Local
	forgets atomic.Int64
}

func (u *unknownJobService) Watch(ctx context.Context, id JobID) (<-chan WatchEvent, error) {
	if u.forgets.Load() > 0 {
		u.Local.Cancel(ctx, id)
		ch := make(chan WatchEvent)
		close(ch) // stream drops immediately: "daemon restarted"
		return ch, nil
	}
	return u.Local.Watch(ctx, id)
}

func (u *unknownJobService) Result(ctx context.Context, id JobID) (*JobResult, error) {
	if u.forgets.Add(-1) >= 0 {
		return nil, ErrUnknownJob
	}
	return u.Local.Result(ctx, id)
}

func TestSubmitAndAwaitResubmits(t *testing.T) {
	svc := &unknownJobService{Local: NewLocal(LocalConfig{})}
	defer svc.Close()
	svc.forgets.Store(1)
	res, err := SubmitAndAwait(context.Background(), svc, kernelReq("add"), nil)
	if err != nil {
		t.Fatalf("SubmitAndAwait across simulated restart: %v", err)
	}
	if res.Run == nil || !res.Run.Correct {
		t.Fatalf("result = %+v", res)
	}
}

// An events stream that breaks mid-job — first a failed GET, then a
// stream that ends without a terminal event, as a reset connection
// does — must not end the wait: Await asks Status, watches again, and
// returns the same result a local run computes.
func TestAwaitSurvivesBrokenEventStream(t *testing.T) {
	ctx := context.Background()
	ref := expReq()
	want, err := Execute(ctx, &ref)
	if err != nil {
		t.Fatal(err)
	}

	svc := NewLocal(LocalConfig{})
	defer svc.Close()
	release := make(chan struct{})
	var unblock sync.Once
	defer unblock.Do(func() { close(release) }) // a failed wait must not wedge Close
	var watches atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/events") {
			NewHandler(svc).ServeHTTP(w, r)
			return
		}
		switch watches.Add(1) {
		case 1:
			http.Error(w, "connection reset", http.StatusBadGateway)
		case 2:
			w.Header().Set("Content-Type", "text/event-stream")
			fmt.Fprint(w, "data: {\"type\":\"state\",\"state\":\"running\"}\n\n")
		default:
			unblock.Do(func() { close(release) })
			NewHandler(svc).ServeHTTP(w, r)
		}
	}))
	defer srv.Close()

	// The job holds at its first progress report until the stream has
	// broken twice, so both breaks land while it runs.
	req := expReq()
	var once sync.Once
	req.Opts.Progress = func(int, int) { once.Do(func() { <-release }) }
	id, err := svc.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Await(ctx, NewClient(srv.URL, srv.Client()), id, nil)
	if err != nil {
		t.Fatalf("Await across a broken event stream: %v", err)
	}
	if got.Tables[0].Markdown() != want.Tables[0].Markdown() {
		t.Fatalf("result differs from local run:\n%s\nvs\n%s", got.Tables[0].Markdown(), want.Tables[0].Markdown())
	}
	if n := watches.Load(); n != 3 {
		t.Fatalf("Await opened the events stream %d times, want 3", n)
	}
}
