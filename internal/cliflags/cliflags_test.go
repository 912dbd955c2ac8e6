package cliflags

import (
	"flag"
	"io"
	"testing"
)

// parse registers all three shared groups on a fresh FlagSet and
// parses args, so tests exercise exactly what the commands do.
func parse(t *testing.T, args ...string) (*Checkpoint, *Cache, *Engine) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	ck := RegisterCheckpoint(fs)
	ca := RegisterCache(fs)
	en := RegisterEngine(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return ck, ca, en
}

func TestZeroValueGroups(t *testing.T) {
	ck, ca, en := parse(t)
	if ck.Active() || ca.Active() {
		t.Error("unset flag groups report Active")
	}
	if got := len(ck.Options()) + len(ca.Options()) + len(en.Options()); got != 0 {
		t.Errorf("unset flag groups produced %d options, want 0", got)
	}
	if en.EngineName() != "skip" {
		t.Errorf("default engine %q, want skip", en.EngineName())
	}
}

func TestCheckpointGroup(t *testing.T) {
	ck, _, _ := parse(t, "-checkpoint-dir", "ck", "-resume")
	if ck.Dir != "ck" || !ck.Resume {
		t.Errorf("parsed checkpoint group %+v", ck)
	}
	if !ck.Active() {
		t.Error("set checkpoint group reports inactive")
	}
	if got := len(ck.Options()); got != 2 {
		t.Errorf("checkpoint group produced %d options, want 2", got)
	}
	// Each flag alone still counts as active.
	for _, args := range [][]string{
		{"-checkpoint-dir", "ck"}, {"-resume"},
	} {
		ck, _, _ := parse(t, args...)
		if !ck.Active() {
			t.Errorf("checkpoint group %v reports inactive", args)
		}
	}
	// Resume is per cell, so there is no checkpoint cadence to set:
	// -checkpoint-every is refused, not silently ignored.
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	RegisterCheckpoint(fs)
	if err := fs.Parse([]string{"-checkpoint-every", "1024"}); err == nil {
		t.Error("-checkpoint-every still parses")
	}
}

func TestCacheGroup(t *testing.T) {
	_, ca, _ := parse(t, "-cache-dir", "rc")
	if ca.Dir != "rc" || !ca.Active() {
		t.Errorf("parsed cache group %+v", ca)
	}
	if got := len(ca.Options()); got != 1 {
		t.Errorf("cache group produced %d options, want 1", got)
	}
}

func TestEngineGroup(t *testing.T) {
	tests := []struct {
		args []string
		name string
		opts int
	}{
		{nil, "skip", 0},
		{[]string{"-engine", "dense"}, "dense", 1},
		{[]string{"-engine", "bogus"}, "skip", 1}, // travels verbatim; validation rejects it later
	}
	for _, tc := range tests {
		_, _, en := parse(t, tc.args...)
		if got := en.EngineName(); got != tc.name {
			t.Errorf("%v: EngineName %q, want %q", tc.args, got, tc.name)
		}
		if got := len(en.Options()); got != tc.opts {
			t.Errorf("%v: %d options, want %d", tc.args, got, tc.opts)
		}
	}
	// -engine is the one spelling: the old -dense shorthand and the
	// retired analytical engine's -calibration/-escalate are refused,
	// not silently ignored.
	for _, args := range [][]string{{"-dense"}, {"-calibration", "cal.olcal"}, {"-escalate"}} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		RegisterEngine(fs)
		if err := fs.Parse(args); err == nil {
			t.Errorf("%v still parses", args)
		}
	}
}
