package serve

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"orderlight/internal/config"
	"orderlight/internal/gpu"
	"orderlight/internal/kernel"
	"orderlight/internal/olerrors"
	"orderlight/internal/stats"
	"orderlight/internal/twin"
)

// testArtifact calibrates one small artifact over the add kernel on the
// shrunken test machine (anchored 4–16 KiB around the 8 KiB footprint
// kernelReq uses, all three primitives, all four TS fractions so fig5
// twin jobs answer every cell) and memoizes it across tests.
var (
	twinArtOnce sync.Once
	twinArt     *twin.Artifact
	twinArtErr  error
)

func testCalibration(t *testing.T) string {
	t.Helper()
	twinArtOnce.Do(func() {
		cfg := *testConfig()
		spec, err := kernel.ByName("add")
		if err != nil {
			twinArtErr = err
			return
		}
		run := func(ctx context.Context, cfg config.Config, spec kernel.Spec, bytes int64) (*stats.Run, error) {
			k, err := kernel.Build(cfg, spec, bytes)
			if err != nil {
				return nil, err
			}
			m, err := gpu.NewMachine(cfg, k.Store, k.Programs)
			if err != nil {
				return nil, err
			}
			return m.Run()
		}
		twinArt, twinArtErr = twin.Calibrate(context.Background(), cfg, run, twin.Options{
			Anchors: []int64{4 << 10, 8 << 10, 16 << 10},
			Specs:   []kernel.Spec{spec},
		})
	})
	if twinArtErr != nil {
		t.Fatalf("test calibration failed: %v", twinArtErr)
	}
	path := filepath.Join(t.TempDir(), "test.olcal")
	if err := twin.Save(twinArt, path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExecuteTwinCalibrationPaths pins Execute's artifact resolution:
// an attached predictor wins, a Calibration path loads, no source at
// all is ErrInvalidSpec naming the fix, and an unreadable path
// surfaces the loader's error.
func TestExecuteTwinCalibrationPaths(t *testing.T) {
	ctx := context.Background()

	req := twinKernelReq(t, "add")
	if _, err := Execute(ctx, &req); err != nil {
		t.Errorf("twin job with a calibration path failed: %v", err)
	}

	bare := kernelReq("add")
	bare.Opts.Engine = "twin"
	if _, err := Execute(ctx, &bare); !errors.Is(err, olerrors.ErrInvalidSpec) ||
		!strings.Contains(fmt.Sprint(err), "needs a calibration artifact") {
		t.Errorf("twin job without any calibration source returned %v, want ErrInvalidSpec naming the artifact", err)
	}

	missing := kernelReq("add")
	missing.Opts.Engine = "twin"
	missing.Opts.Calibration = filepath.Join(t.TempDir(), "absent.olcal")
	if _, err := Execute(ctx, &missing); err == nil {
		t.Error("twin job with an unreadable calibration path succeeded")
	}
}

func twinKernelReq(t *testing.T, name string) JobRequest {
	req := kernelReq(name)
	req.Opts.Engine = "twin"
	req.Opts.Calibration = testCalibration(t)
	return req
}

// TestValidateTwinOptions pins the twin option invariants at the single
// admission gate: every cycle-engine observer/steerer is refused under
// the twin, and the twin-only knobs are refused without it.
func TestValidateTwinOptions(t *testing.T) {
	cases := []struct {
		name string
		opts RunOpts
		want string // "" accepts; otherwise a required substring of the error
	}{
		{"twin", RunOpts{Engine: "twin"}, ""},
		{"twin with calibration", RunOpts{Engine: "twin", Calibration: "cal.olcal"}, ""},
		{"twin with escalate", RunOpts{Engine: "twin", Escalate: true}, ""},
		{"twin with predictor", RunOpts{Engine: "twin", TwinPredictor: &twin.Predictor{}}, ""},
		{"dense flag vs twin", RunOpts{Dense: true, Engine: "twin"}, "conflicts with engine"},
		{"twin with checkpoints", RunOpts{Engine: "twin", CheckpointDir: "ck"}, "checkpoints journal cycle-engine progress"},
		{"twin with resume", RunOpts{Engine: "twin", CheckpointDir: "ck", Resume: true}, "checkpoints journal cycle-engine progress"},
		{"twin with stream-trace", RunOpts{Engine: "twin", StreamTrace: true}, "no event feed"},
		{"twin with sampler", RunOpts{Engine: "twin", Sampler: stats.NewSampler(100)}, "no counters to sample"},
		{"calibration without twin", RunOpts{Calibration: "cal.olcal"}, "needs the twin engine"},
		{"calibration on parallel", RunOpts{Engine: "parallel", Calibration: "cal.olcal"}, `unknown engine "parallel" (want skip|dense|twin)`},
		{"escalate without twin", RunOpts{Escalate: true}, "needs the twin engine"},
		{"predictor without twin", RunOpts{TwinPredictor: &twin.Predictor{}}, "needs the twin engine"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := JobRequest{Kind: KindKernel, Kernel: "add", Opts: tc.opts}
			err := req.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want accept", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() accepted, want error containing %q", tc.want)
			}
			if !errors.Is(err, olerrors.ErrInvalidSpec) {
				t.Errorf("error %v is not classified as ErrInvalidSpec", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestLocalTwinJobs runs twin jobs end to end on the Local service: a
// single-cell kernel job and a fig5 experiment job, both answered from
// the calibration without simulating, with exact command counts and no
// verification claim.
func TestLocalTwinJobs(t *testing.T) {
	svc := NewLocal(LocalConfig{})
	defer svc.Close()
	ctx := context.Background()

	req := twinKernelReq(t, "add")
	id, err := svc.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Await(ctx, svc, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run == nil || res.Run.PIMCommands == 0 {
		t.Fatalf("twin kernel job result implausible: %+v", res)
	}
	if res.Run.Verified {
		t.Fatal("twin answer claims functional verification")
	}

	exp := JobRequest{Kind: KindExperiment, Experiment: "fig5", Config: testConfig()}
	exp.Opts.Engine = "twin"
	exp.Opts.Calibration = req.Opts.Calibration
	exp.Opts.BytesPerChannel = 8 << 10
	id, err = svc.Submit(ctx, exp)
	if err != nil {
		t.Fatal(err)
	}
	res, err = Await(ctx, svc, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 1 || res.Tables[0].ID != "fig5" {
		t.Fatalf("twin experiment job returned %+v", res.Tables)
	}
}

// TestLocalTwinEscalation pins the serve-tier escalation contract: a
// cell outside the calibrated range fails with the twin-confidence
// sentinel by default, and with escalate it re-runs on the skip-ahead
// cycle engine with a byte-identical result.
func TestLocalTwinEscalation(t *testing.T) {
	svc := NewLocal(LocalConfig{})
	defer svc.Close()
	ctx := context.Background()

	// 32 KiB/channel is outside the test calibration's 4–16 KiB range.
	req := twinKernelReq(t, "add")
	req.Bytes = 32 << 10
	id, err := svc.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Await(ctx, svc, id, nil); !errors.Is(err, twin.ErrOutOfConfidence) {
		t.Fatalf("out-of-range twin job = %v, want twin.ErrOutOfConfidence", err)
	}
	st, err := svc.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || st.Error == nil || st.Error.Code != "twin-confidence" {
		t.Fatalf("out-of-range twin status = %+v", st)
	}

	direct := kernelReq("add")
	direct.Bytes = 32 << 10
	id, err = svc.Submit(ctx, direct)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Await(ctx, svc, id, nil)
	if err != nil {
		t.Fatal(err)
	}

	esc := req
	esc.Opts.Escalate = true
	id, err = svc.Submit(ctx, esc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Await(ctx, svc, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Run.String() != want.Run.String() {
		t.Fatalf("escalated twin job differs from direct cycle-engine run:\n%s\nvs\n%s",
			got.Run, want.Run)
	}
}

// TestLocalSharedCalibration covers the daemon-side calibration: a
// service started with a Calibration path serves twin jobs that bring
// none of their own, and a service with an unloadable artifact refuses
// twin submissions while cycle-engine jobs keep running.
func TestLocalSharedCalibration(t *testing.T) {
	svc := NewLocal(LocalConfig{Calibration: testCalibration(t)})
	defer svc.Close()
	ctx := context.Background()

	req := kernelReq("add")
	req.Opts.Engine = "twin"
	id, err := svc.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Await(ctx, svc, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run == nil || res.Run.PIMCommands == 0 {
		t.Fatalf("shared-calibration twin job result implausible: %+v", res)
	}

	bad := NewLocal(LocalConfig{Calibration: filepath.Join(t.TempDir(), "missing.olcal")})
	defer bad.Close()
	if _, err := bad.Submit(ctx, req); !errors.Is(err, olerrors.ErrInvalidSpec) {
		t.Fatalf("twin Submit on bad calibration = %v, want ErrInvalidSpec", err)
	}
	id, err = bad.Submit(ctx, kernelReq("add"))
	if err != nil {
		t.Fatalf("cycle job on bad-calibration daemon = %v, want accept", err)
	}
	if _, err := Await(ctx, bad, id, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTwinJobsNotMemoized holds the memoization line: twin answers are
// keyed to a calibration file on the server's disk, so whole-job memos
// would outlive a recalibration — only cycle-engine jobs memoize.
func TestTwinJobsNotMemoized(t *testing.T) {
	skip := kernelReq("add")
	if !jobMemoizable(&skip) {
		t.Error("plain kernel job not memoizable")
	}
	tw := kernelReq("add")
	tw.Opts.Engine = "twin"
	tw.Opts.Calibration = "cal.olcal"
	if jobMemoizable(&tw) {
		t.Error("twin job is whole-job memoizable; a memo would outlive recalibration")
	}

	// A twin job on a cache-armed daemon still runs correctly (per-cell
	// twin-domain caching only), and an identical resubmission agrees.
	svc := NewLocal(LocalConfig{CacheDir: t.TempDir()})
	defer svc.Close()
	ctx := context.Background()
	req := twinKernelReq(t, "add")
	var runs []*stats.Run
	for i := 0; i < 2; i++ {
		id, err := svc.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Await(ctx, svc, id, nil)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, res.Run)
	}
	if runs[0].String() != runs[1].String() {
		t.Fatal("identical twin resubmission disagrees with first answer")
	}
}

// TestHandlerTwinSentinelRoundTrips pins the wire taxonomy: the twin
// sentinels survive the HTTP round trip via their JobError codes, and
// the twin option fields travel inside the submitted request.
func TestHandlerTwinSentinelRoundTrips(t *testing.T) {
	fake, client := newFakeServer(t)
	ctx := context.Background()

	for _, tc := range []struct {
		sentinel error
		code     string
	}{
		{twin.ErrOutOfConfidence, "twin-confidence"},
		{twin.ErrCalibration, "twin-calibration"},
	} {
		req := kernelReq("add")
		req.Opts.Engine = "twin"
		req.Opts.Calibration = "cal.olcal"
		req.Opts.Escalate = true
		id, err := client.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		sub := fake.Submitted[len(fake.Submitted)-1]
		if sub.Opts.Engine != "twin" || sub.Opts.Calibration != "cal.olcal" || !sub.Opts.Escalate {
			t.Fatalf("twin options lost in transit: %+v", sub.Opts)
		}
		fake.Start(id)
		fake.Finish(id, nil, fmt.Errorf("serve: cell add: %w", tc.sentinel))
		if _, err := client.Result(ctx, id); !errors.Is(err, tc.sentinel) {
			t.Fatalf("Result = %v, want %v across the wire", err, tc.sentinel)
		}
		st, err := client.Status(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Error == nil || st.Error.Code != tc.code {
			t.Fatalf("failed status = %+v, want code %q", st, tc.code)
		}
	}
}
