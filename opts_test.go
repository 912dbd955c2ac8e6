package orderlight

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"orderlight/internal/stats"
)

// TestBuildOpts pins the one-pass option fold: every With* option sets
// exactly its RunOpts field, and validation happens once in buildOpts
// rather than per entry point.
func TestBuildOpts(t *testing.T) {
	sink := NewPerfettoSink(discard{})
	sampler := NewSampler(100)
	progress := func(done, total int) {}
	fspec := FaultSpec{Class: FaultDropOrdering, Seed: 7, Rate: 0.5}

	o, err := buildOpts(
		WithParallelism(3),
		WithProgress(progress),
		WithKernelCache(false),
		WithEngine("dense"),
		WithScale(Scale{BytesPerChannel: 4096}),
		WithTraceSink(sink),
		WithSampler(sampler),
		WithFaultPlan(fspec),
		WithManifest(),
		WithCheckpointDir("ck"),
		WithResume(),
		WithCellRetries(2),
		WithCellTimeout(5*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	if o.Parallelism != 3 || !o.NoKernelCache || o.Engine != "dense" || o.BytesPerChannel != 4096 ||
		o.Sink != sink || o.Sampler != sampler || o.Fault != fspec || !o.Manifest ||
		o.CheckpointDir != "ck" || !o.Resume ||
		o.Retries != 2 || o.CellTimeout != 5*time.Second ||
		o.Progress == nil {
		t.Fatalf("buildOpts folded wrong: %+v", o)
	}

	invalid := []struct {
		name string
		opts []Option
		want string // optional required substring of the error
	}{
		{"removed parallel engine", []Option{WithEngine("parallel")}, "want skip|dense"},
		{"resume without dir", []Option{WithResume()}, ""},
		{"negative retries", []Option{WithCellRetries(-1)}, ""},
		{"negative timeout", []Option{WithCellTimeout(-time.Second)}, ""},
		{"malformed fault", []Option{WithFaultPlan(FaultSpec{Class: FaultDropOrdering, Rate: 7})}, ""},
	}
	for _, tc := range invalid {
		_, err := buildOpts(tc.opts...)
		if !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: buildOpts = %v, want ErrInvalidSpec", tc.name, err)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestSweepGuards pins the centralized multi-cell guards: every
// single-run-only option is rejected by every fan-out entry point with
// ErrInvalidSpec, enforced in one place (JobRequest.Validate) instead
// of per entry point.
func TestSweepGuards(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Memory.Channels = 4
	cfg.GPU.PIMSMs = 2
	ctx := context.Background()

	options := map[string]Option{
		"WithTraceSink": WithTraceSink(NewPerfettoSink(discard{})),
		"WithSampler":   WithSampler(stats.NewSampler(100)),
		"WithFaultPlan": WithFaultPlan(FaultSpec{Class: FaultDropOrdering, Seed: 1, Rate: 1}),
	}
	sweeps := map[string]func(Option) error{
		"RunExperimentContext": func(o Option) error {
			_, err := RunExperimentContext(ctx, "fig5", cfg, o)
			return err
		},
		"RunAllExperimentsContext": func(o Option) error {
			_, err := RunAllExperimentsContext(ctx, cfg, o)
			return err
		},
		"RunFaultCampaignContext": func(o Option) error {
			_, _, err := RunFaultCampaignContext(ctx, cfg, o)
			return err
		},
	}
	for oname, opt := range options {
		for sname, run := range sweeps {
			if err := run(opt); !errors.Is(err, ErrInvalidSpec) {
				t.Errorf("%s(%s) = %v, want ErrInvalidSpec", sname, oname, err)
			}
		}
	}
}
