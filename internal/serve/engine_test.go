package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"orderlight/internal/olerrors"
	"orderlight/internal/stats"
)

// TestValidateEngine pins engine-field validation on the job wire
// format: unknown engine names — including the removed "parallel" and
// "twin" — are rejected at admission (never mapped to a default engine).
func TestValidateEngine(t *testing.T) {
	cases := []struct {
		name string
		opts RunOpts
		want string // "" accepts; otherwise a required substring of the error
	}{
		{"default", RunOpts{}, ""},
		{"skip", RunOpts{Engine: "skip"}, ""},
		{"dense", RunOpts{Engine: "dense"}, ""},
		{"parallel", RunOpts{Engine: "parallel"}, `unknown engine "parallel" (want skip|dense)`},
		{"twin", RunOpts{Engine: "twin"}, `unknown engine "twin" (want skip|dense)`},
		{"unknown engine", RunOpts{Engine: "turbo"}, `unknown engine "turbo"`},
		{"misspelled engine", RunOpts{Engine: "Skip"}, `unknown engine "Skip"`},
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

// TestValidateTwinOptions pins that the retired twin engine stays
// refused at the admission gate whatever rides along with it: neither
// a bare "twin" nor a twin request carrying the cycle-engine observers
// it used to refuse (checkpoints, resume, the event feed, a sampler)
// reaches a run. Each is an invalid spec naming the unknown engine.
func TestValidateTwinOptions(t *testing.T) {
	cases := []struct {
		name string
		opts RunOpts
	}{
		{"twin", RunOpts{Engine: "twin"}},
		{"twin with checkpoints", RunOpts{Engine: "twin", CheckpointDir: "ck"}},
		{"twin with resume", RunOpts{Engine: "twin", CheckpointDir: "ck", Resume: true}},
		{"twin with stream-trace", RunOpts{Engine: "twin", StreamTrace: true}},
		{"twin with sampler", RunOpts{Engine: "twin", Sampler: stats.NewSampler(100)}},
	}
	const want = `unknown engine "twin" (want skip|dense)`
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := JobRequest{Kind: KindKernel, Kernel: "add", Opts: tc.opts}
			err := req.Validate()
			if err == nil {
				t.Fatalf("Validate() accepted, want error containing %q", want)
			}
			if !errors.Is(err, olerrors.ErrInvalidSpec) {
				t.Errorf("error %v is not classified as ErrInvalidSpec", err)
			}
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not contain %q", err, want)
			}
		})
	}
}

// TestSubmitRejectsRemovedEngine pins the wire side of removed options:
// naming the parallel or twin engine, or sending the parallel engine's
// shard-count field, the mid-cell checkpoint fields (halt_after,
// checkpoint_every), the sweep fabric's fabric flag, the twin's
// calibration and escalate fields or the old dense shorthand, is a 400
// invalid-spec at POST /v1/jobs, never a run with the field ignored.
// The fabric's /v1/work routes are gone.
func TestSubmitRejectsRemovedEngine(t *testing.T) {
	_, client := newFakeServer(t)
	cases := []struct {
		name, body, want string
	}{
		{"engine", `{"kind":"kernel","kernel":"add","opts":{"engine":"parallel"}}`, "want skip|dense"},
		{"twin", `{"kind":"kernel","kernel":"add","opts":{"engine":"twin"}}`, `unknown engine "twin" (want skip|dense)`},
		{"shards", `{"kind":"kernel","kernel":"add","opts":{"shards":4}}`, `unknown field "shards"`},
		{"halt_after", `{"kind":"kernel","kernel":"add","opts":{"halt_after":400}}`, `unknown field "halt_after"`},
		{"checkpoint_every", `{"kind":"experiment","experiment":"fig5","opts":{"checkpoint_dir":"ck","checkpoint_every":1024}}`, `unknown field "checkpoint_every"`},
		{"fabric", `{"kind":"experiment","experiment":"fig5","opts":{"fabric":true}}`, `unknown field "fabric"`},
		{"calibration", `{"kind":"kernel","kernel":"add","opts":{"engine":"twin","calibration":"calibration.olcal"}}`, `unknown field "calibration"`},
		{"escalate", `{"kind":"kernel","kernel":"add","opts":{"escalate":true}}`, `unknown field "escalate"`},
		{"dense", `{"kind":"kernel","kernel":"add","opts":{"dense":true}}`, `unknown field "dense"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(client.base+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			var eb errorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == nil || eb.Error.Code != "invalid-spec" {
				t.Fatalf("envelope = %+v (err %v), want invalid-spec", eb, err)
			}
			if !strings.Contains(eb.Error.Message, tc.want) {
				t.Errorf("message %q does not contain %q", eb.Error.Message, tc.want)
			}
		})
	}
	resp, err := http.Post(client.base+"/v1/work/lease", "application/json", strings.NewReader(`{"worker":"w1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/work/lease = %d, want 404 (route removed)", resp.StatusCode)
	}
}
