package obs

import (
	"encoding/json"
	"reflect"
	"testing"

	"orderlight/internal/config"
)

// TestConfigHashDeterministic checks the hash is a pure function of the
// configuration value: equal configs hash equal, and any field change
// moves the hash.
func TestConfigHashDeterministic(t *testing.T) {
	a, b := config.Default(), config.Default()
	if ConfigHash(a) != ConfigHash(b) {
		t.Fatalf("equal configs hash differently: %s vs %s", ConfigHash(a), ConfigHash(b))
	}
	if len(ConfigHash(a)) != 16 {
		t.Errorf("hash %q is not 16 hex digits", ConfigHash(a))
	}
	b.PIM.TSBytes *= 2
	if ConfigHash(a) == ConfigHash(b) {
		t.Error("TSBytes change did not move the hash")
	}
	c := config.Default()
	c.Run.Seed++
	if ConfigHash(a) == ConfigHash(c) {
		t.Error("seed change did not move the hash")
	}
}

// TestManifestJSONRoundTrip checks a manifest survives its JSON
// encoding unchanged — the acceptance property that lets results_all.md
// carry machine-readable provenance.
func TestManifestJSONRoundTrip(t *testing.T) {
	m := Manifest{
		Cell:            "fig5/add/fence/ts=1/8",
		Kernel:          "add",
		Primitive:       "fence",
		Seed:            42,
		Channels:        16,
		TSBytes:         256,
		BMF:             16,
		BytesPerChannel: 128 << 10,
		HostBaseline:    false,
		ConfigHash:      ConfigHash(config.Default()),
		Engine:          EngineName(false),
		WallMS:          12.5,
		GoVersion:       "go1.24.0",
	}
	var back Manifest
	if err := json.Unmarshal([]byte(m.JSON()), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, back) {
		t.Errorf("manifest did not round-trip:\n in: %+v\nout: %+v", m, back)
	}
}

func TestEngineName(t *testing.T) {
	cases := []struct {
		dense bool
		want  string
	}{
		{false, "skip"},
		{true, "dense"},
	}
	for _, c := range cases {
		if got := EngineName(c.dense); got != c.want {
			t.Errorf("EngineName(%v) = %s, want %s", c.dense, got, c.want)
		}
	}
}

func TestTrackLabel(t *testing.T) {
	cases := []struct {
		tr   Track
		want string
	}{
		{Track{Kind: TrackClockCore}, "clock-core"},
		{Track{Kind: "sm", ID: 3}, "sm 3"},
		{Track{Kind: "mc", ID: 0}, "mc 0"},
	}
	for _, c := range cases {
		if got := c.tr.Label(); got != c.want {
			t.Errorf("Label(%+v) = %q, want %q", c.tr, got, c.want)
		}
	}
	if !(Track{Kind: TrackClockMem}).IsClock() || (Track{Kind: "warp"}).IsClock() {
		t.Error("IsClock misclassifies tracks")
	}
}
