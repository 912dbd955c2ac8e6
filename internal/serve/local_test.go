package serve

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"orderlight/internal/chaos"
	"orderlight/internal/config"
	"orderlight/internal/olerrors"
)

// testConfig shrinks the machine so every job finishes in tens of
// milliseconds.
func testConfig() *config.Config {
	cfg := config.Default()
	cfg.Memory.Channels = 4
	cfg.GPU.PIMSMs = 2
	return &cfg
}

func kernelReq(name string) JobRequest {
	return JobRequest{Kind: KindKernel, Kernel: name, Bytes: 8 << 10, Config: testConfig()}
}

func TestLocalLifecycle(t *testing.T) {
	svc := NewLocal(LocalConfig{})
	defer svc.Close()
	ctx := context.Background()

	id, err := svc.Submit(ctx, kernelReq("add"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Await(ctx, svc, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run == nil || !res.Run.Correct {
		t.Fatalf("job result implausible: %+v", res)
	}
	st, err := svc.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Error != nil {
		t.Fatalf("status after done = %+v", st)
	}
	// Watch on a terminal job: one snapshot, then close.
	events, err := svc.Watch(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	ev, ok := <-events
	if !ok || !ev.Terminal() || ev.State != StateDone {
		t.Fatalf("terminal watch snapshot = %+v (ok %v)", ev, ok)
	}
	if _, ok := <-events; ok {
		t.Fatal("watch stream did not close after terminal snapshot")
	}
}

func TestLocalUnknownJobAndNotFinished(t *testing.T) {
	svc := NewLocal(LocalConfig{})
	defer svc.Close()
	ctx := context.Background()

	if _, err := svc.Status(ctx, "job-nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Status(unknown) = %v, want ErrUnknownJob", err)
	}
	if _, err := svc.Result(ctx, "job-nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Result(unknown) = %v, want ErrUnknownJob", err)
	}

	// A job held in its progress callback is running, not finished.
	gate := make(chan struct{})
	started := make(chan struct{})
	req := kernelReq("add")
	req.Opts.Progress = func(done, total int) {
		close(started)
		<-gate
	}
	id, err := svc.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := svc.Result(ctx, id); !errors.Is(err, ErrNotFinished) {
		t.Fatalf("Result(running) = %v, want ErrNotFinished", err)
	}
	close(gate)
	if _, err := Await(ctx, svc, id, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLocalSubmitValidation(t *testing.T) {
	svc := NewLocal(LocalConfig{})
	defer svc.Close()
	ctx := context.Background()

	cases := []struct {
		name string
		req  JobRequest
		want error
	}{
		{"unknown kernel", kernelReq("not-a-kernel"), olerrors.ErrUnknownKernel},
		{"unknown experiment", JobRequest{Kind: KindExperiment, Experiment: "fig99"}, olerrors.ErrUnknownExperiment},
		{"unknown kind", JobRequest{Kind: "nonsense"}, olerrors.ErrInvalidSpec},
		{"resume without dir", func() JobRequest {
			r := kernelReq("add")
			r.Opts.Resume = true
			return r
		}(), olerrors.ErrInvalidSpec},
		{"stream-trace on experiment", JobRequest{Kind: KindExperiment, Experiment: "fig5", Opts: RunOpts{StreamTrace: true}}, olerrors.ErrInvalidSpec},
	}
	for _, tc := range cases {
		if _, err := svc.Submit(ctx, tc.req); !errors.Is(err, tc.want) {
			t.Errorf("%s: Submit = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestLocalQueueFullAndQuota(t *testing.T) {
	svc := NewLocal(LocalConfig{Workers: 1, QueueDepth: 2, PerTenant: 2})
	defer svc.Close()
	ctx := context.Background()

	// Hold the single worker inside job 1's progress callback.
	gate := make(chan struct{})
	started := make(chan struct{})
	blocking := kernelReq("add")
	blocking.Tenant = "alice"
	blocking.Opts.Progress = func(done, total int) {
		select {
		case <-started:
		default:
			close(started)
		}
		<-gate
	}
	id1, err := svc.Submit(ctx, blocking)
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// Alice's second job fills her quota (1 running + 1 queued).
	alice2 := kernelReq("triad")
	alice2.Tenant = "alice"
	id2, err := svc.Submit(ctx, alice2)
	if err != nil {
		t.Fatal(err)
	}
	alice3 := kernelReq("copy")
	alice3.Tenant = "alice"
	if _, err := svc.Submit(ctx, alice3); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("Submit over quota = %v, want ErrQuotaExceeded", err)
	}

	// Another tenant takes the last queue slot; the next submission
	// finds the queue (depth 2) at capacity.
	bob := kernelReq("add")
	bob.Tenant = "bob"
	idBob, err := svc.Submit(ctx, bob)
	if err != nil {
		t.Fatal(err)
	}
	carol := kernelReq("add")
	carol.Tenant = "carol"
	if _, err := svc.Submit(ctx, carol); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit over capacity = %v, want ErrQueueFull", err)
	}

	// Canceling a queued job is immediate — it never runs.
	if err := svc.Cancel(ctx, id2); err != nil {
		t.Fatal(err)
	}
	st, err := svc.Status(ctx, id2)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("canceled-while-queued state = %v", st.State)
	}

	close(gate)
	for _, id := range []JobID{id1, idBob} {
		if _, err := Await(ctx, svc, id, nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLocalCancelMidRun(t *testing.T) {
	svc := NewLocal(LocalConfig{})
	defer svc.Close()
	ctx := context.Background()

	// fig5 fans out several cells; parallelism 1 guarantees cells
	// remain when the first progress callback fires.
	req := JobRequest{Kind: KindExperiment, Experiment: "fig5", Config: testConfig()}
	req.Opts.Parallelism = 1
	started := make(chan struct{})
	req.Opts.Progress = func(done, total int) {
		select {
		case <-started:
		default:
			close(started)
		}
	}
	id, err := svc.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if err := svc.Cancel(ctx, id); err != nil {
		t.Fatal(err)
	}
	if _, err := Await(ctx, svc, id, nil); !errors.Is(err, olerrors.ErrCanceled) {
		t.Fatalf("canceled job result = %v, want ErrCanceled", err)
	}
	st, err := svc.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled || st.Error == nil || st.Error.Code != "canceled" {
		t.Fatalf("status after mid-run cancel = %+v", st)
	}
}

func TestLocalWatchStreamsProgress(t *testing.T) {
	svc := NewLocal(LocalConfig{})
	defer svc.Close()
	ctx := context.Background()

	req := JobRequest{Kind: KindExperiment, Experiment: "fig5", Config: testConfig()}
	req.Opts.Parallelism = 1
	id, err := svc.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	events, err := svc.Watch(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	var progress int
	var last WatchEvent
	for ev := range events {
		if ev.Type == "progress" {
			progress++
		}
		last = ev
	}
	if !last.Terminal() || last.State != StateDone {
		t.Fatalf("last event = %+v, want terminal done", last)
	}
	if progress == 0 {
		t.Fatal("watch saw no progress events")
	}
}

func TestLocalDrainRejectsAndPreempts(t *testing.T) {
	root := t.TempDir()
	svc := NewLocal(LocalConfig{Workers: 1, CheckpointRoot: root})

	// A slow sweep-ish job: fig5 sequentially, gated so we know it
	// started before draining.
	req := JobRequest{Kind: KindExperiment, Experiment: "fig5", Config: testConfig()}
	req.Opts.Parallelism = 1
	started := make(chan struct{})
	req.Opts.Progress = func(done, total int) {
		select {
		case <-started:
		default:
			close(started)
		}
	}
	ctx := context.Background()
	id, err := svc.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Resumable {
		t.Fatal("job under CheckpointRoot not marked resumable")
	}
	<-started

	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := svc.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	// Preempted at a cell boundary: canceled, with its progress
	// journaled under the request-keyed directory.
	st, err = svc.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("preempted job state = %v, want canceled", st.State)
	}
	journals, _ := filepath.Glob(filepath.Join(root, "*", "journal.jsonl"))
	if len(journals) == 0 {
		t.Fatal("drain left no journal under the checkpoint root")
	}
	// Draining service refuses new work.
	if _, err := svc.Submit(ctx, kernelReq("add")); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit while draining = %v, want ErrDraining", err)
	}
	svc.Close()

	// A fresh service over the same root resumes the identical request
	// from the journal; the finished table is byte-identical to an
	// uninterrupted run.
	svc2 := NewLocal(LocalConfig{Workers: 1, CheckpointRoot: root})
	defer svc2.Close()
	req2 := JobRequest{Kind: KindExperiment, Experiment: "fig5", Config: testConfig()}
	req2.Opts.Parallelism = 1
	id2, err := svc2.Submit(ctx, req2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Await(ctx, svc2, id2, nil)
	if err != nil {
		t.Fatal(err)
	}

	want, err := Execute(ctx, &JobRequest{Kind: KindExperiment, Experiment: "fig5", Config: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tables[0].Markdown() != want.Tables[0].Markdown() {
		t.Fatalf("resumed table differs from uninterrupted run:\n%s\nvs\n%s",
			res.Tables[0].Markdown(), want.Tables[0].Markdown())
	}
}

func TestLocalSubmitCanceledContext(t *testing.T) {
	svc := NewLocal(LocalConfig{})
	defer svc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Submit(ctx, kernelReq("add")); !errors.Is(err, olerrors.ErrCanceled) {
		t.Fatalf("Submit with canceled ctx = %v, want ErrCanceled", err)
	}
}

func TestLocalForget(t *testing.T) {
	svc := NewLocal(LocalConfig{})
	defer svc.Close()
	ctx := context.Background()
	id, err := svc.Submit(ctx, kernelReq("add"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Await(ctx, svc, id, nil); err != nil {
		t.Fatal(err)
	}
	svc.Forget(id)
	if _, err := svc.Status(ctx, id); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Status after Forget = %v, want ErrUnknownJob", err)
	}
}

// recordingFS notes every file a run opens through it.
type recordingFS struct {
	chaos.FS
	mu     sync.Mutex
	opened []string
}

func (r *recordingFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	r.mu.Lock()
	r.opened = append(r.opened, name)
	r.mu.Unlock()
	return r.FS.OpenFile(name, flag, perm)
}

// The daemon's filesystem (olserve -chaos fs=) carries every job's cell
// journal, not only the result cache.
func TestLocalJobJournalUsesServiceFS(t *testing.T) {
	fsys := &recordingFS{FS: chaos.OS}
	svc := NewLocal(LocalConfig{CheckpointRoot: t.TempDir(), FS: fsys})
	defer svc.Close()
	ctx := context.Background()
	id, err := svc.Submit(ctx, kernelReq("add"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Await(ctx, svc, id, nil); err != nil {
		t.Fatal(err)
	}
	fsys.mu.Lock()
	defer fsys.mu.Unlock()
	for _, name := range fsys.opened {
		if filepath.Base(name) == "journal.jsonl" {
			return
		}
	}
	t.Fatalf("job journal not opened through the service filesystem (opened %v)", fsys.opened)
}
