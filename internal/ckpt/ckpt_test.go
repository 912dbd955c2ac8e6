package ckpt_test

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"orderlight/internal/ckpt"
	"orderlight/internal/config"
	"orderlight/internal/gpu"
	"orderlight/internal/kernel"
	"orderlight/internal/olerrors"
	"orderlight/internal/sim"
	"orderlight/internal/stats"
)

// testConfig is a small 2-channel machine, fast enough for file-level
// round trips.
func testConfig() config.Config {
	cfg := config.Default()
	cfg.Memory.Channels = 2
	cfg.GPU.PIMSMs = 1
	cfg.GPU.WarpsPerSM = 2
	cfg.Run.DeadlineMS = 20
	cfg.Run.Primitive = config.PrimitiveOrderLight
	return cfg
}

// buildMachine constructs a fresh machine over a fresh kernel image.
func buildMachine(t *testing.T, cfg config.Config, dense bool) (*gpu.Machine, *kernel.Kernel) {
	t.Helper()
	ks, err := kernel.ByName("add")
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernel.Build(cfg, ks, 2048)
	if err != nil {
		t.Fatal(err)
	}
	m, err := gpu.NewMachine(cfg, k.Store, k.Programs)
	if err != nil {
		t.Fatal(err)
	}
	m.SetDense(dense)
	return m, k
}

// haltState runs a machine up to `halt` core cycles and captures its
// state there.
func haltState(t *testing.T, cfg config.Config, dense bool, halt int64) *gpu.MachineState {
	t.Helper()
	m, _ := buildMachine(t, cfg, dense)
	m.SetHaltAfter(halt)
	if _, err := m.Run(); !errors.Is(err, olerrors.ErrHalted) {
		t.Fatalf("Run = %v, want ErrHalted", err)
	}
	return m.CaptureState()
}

func testMeta() ckpt.Meta {
	return ckpt.Meta{
		CellHash: "0011223344556677", Cell: "test/add/orderlight", Kernel: "add",
		ConfigHash: "deadbeef", Engine: "skip", Seed: 1, Bytes: 2048,
		Fault: "none", CoreCycle: 100, SimTime: 1700,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	state := haltState(t, testConfig(), false, 200)
	c := &ckpt.Checkpoint{Meta: testMeta(), Machine: state}
	data, err := ckpt.Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ckpt.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != c.Meta {
		t.Fatalf("meta round-tripped to %+v, want %+v", got.Meta, c.Meta)
	}
	if got.Machine == nil {
		t.Fatal("machine state lost in round trip")
	}
	if got.Machine.Engine.Now != state.Engine.Now {
		t.Fatalf("engine time %v, want %v", got.Machine.Engine.Now, state.Engine.Now)
	}
	if got.Machine.NextID != state.NextID {
		t.Fatalf("next request id %d, want %d", got.Machine.NextID, state.NextID)
	}
}

// TestDecodeCorruption drives every damage class to its distinct
// sentinel: a corrupt checkpoint is always a loud, typed error and
// never a panic or a silent bad resume.
func TestDecodeCorruption(t *testing.T) {
	state := haltState(t, testConfig(), false, 200)
	valid, err := ckpt.Encode(&ckpt.Checkpoint{Meta: testMeta(), Machine: state})
	if err != nil {
		t.Fatal(err)
	}

	// A well-formed container whose payload is not a gob stream: the
	// checksum verifies, the decode does not.
	garbagePayload := container(ckpt.Version, []byte("this is not a gob stream at all"))

	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x40

	wrongVersion := append([]byte(nil), valid...)
	binary.BigEndian.PutUint16(wrongVersion[6:], ckpt.Version+1)
	badMagic := append([]byte("XXXXXX"), valid[6:]...)

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, olerrors.ErrCheckpointTruncated},
		{"shorter-than-magic", valid[:3], olerrors.ErrCheckpointTruncated},
		{"short-header", valid[:20], olerrors.ErrCheckpointTruncated},
		{"truncated-payload", valid[:len(valid)-10], olerrors.ErrCheckpointTruncated},
		{"bad-magic", badMagic, olerrors.ErrCheckpointFormat},
		{"trailing-garbage", append(append([]byte(nil), valid...), 0xAA), olerrors.ErrCheckpointFormat},
		{"garbage-gob-payload", garbagePayload, olerrors.ErrCheckpointFormat},
		{"future-version", wrongVersion, olerrors.ErrCheckpointVersion},
		{"bit-flip", flipped, olerrors.ErrCheckpointChecksum},
	}
	all := []error{
		olerrors.ErrCheckpointTruncated, olerrors.ErrCheckpointFormat,
		olerrors.ErrCheckpointVersion, olerrors.ErrCheckpointChecksum,
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ckpt.Decode(tc.data)
			if !errors.Is(err, tc.want) {
				t.Fatalf("Decode = %v, want %v", err, tc.want)
			}
			// The sentinels are distinct: exactly one matches.
			for _, s := range all {
				if s != tc.want && errors.Is(err, s) {
					t.Fatalf("Decode error %v also matches %v", err, s)
				}
			}
		})
	}
}

// TestDecodeRefusesVersion1 pins the Request-narrowing format bump: a
// version-1 file (int-typed request fields, a slice of extension
// groups) is refused loudly as ErrCheckpointVersion, with a message
// telling the operator to delete it, never decoded into the new layout.
func TestDecodeRefusesVersion1(t *testing.T) {
	state := haltState(t, testConfig(), false, 200)
	valid, err := ckpt.Encode(&ckpt.Checkpoint{Meta: testMeta(), Machine: state})
	if err != nil {
		t.Fatal(err)
	}
	// A structurally sound version-1 container: correct length and
	// digest, only the version field says 1.
	v1 := container(1, valid[len("OLCKPT")+2+8+32:])
	_, err = ckpt.Decode(v1)
	if !errors.Is(err, olerrors.ErrCheckpointVersion) {
		t.Fatalf("Decode(v1) = %v, want ErrCheckpointVersion", err)
	}
	if !strings.Contains(err.Error(), "delete") {
		t.Fatalf("Decode(v1) = %q, want a message saying to delete the file", err)
	}
}

// container hand-assembles a checkpoint container around an arbitrary
// payload with a correct length field and digest — the layout the
// package doc specifies: magic, version, payload length, sha256,
// payload (integers big-endian).
func container(version uint16, payload []byte) []byte {
	out := []byte("OLCKPT")
	out = binary.BigEndian.AppendUint16(out, version)
	out = binary.BigEndian.AppendUint64(out, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	out = append(out, sum[:]...)
	return append(out, payload...)
}

func TestSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cell.ckpt")
	state := haltState(t, testConfig(), false, 200)
	c := &ckpt.Checkpoint{Meta: testMeta(), Machine: state}
	if err := ckpt.Save(path, c); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("temp file left behind after a successful save")
	}
	got, err := ckpt.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != c.Meta {
		t.Fatalf("loaded meta %+v, want %+v", got.Meta, c.Meta)
	}
	// Overwrite is atomic too: save again and reload.
	c.Meta.CoreCycle = 999
	if err := ckpt.Save(path, c); err != nil {
		t.Fatal(err)
	}
	if got, err = ckpt.Load(path); err != nil || got.Meta.CoreCycle != 999 {
		t.Fatalf("reload after overwrite: %+v, %v", got.Meta, err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	_, err := ckpt.Load(filepath.Join(t.TempDir(), "nope.ckpt"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Load = %v, want fs.ErrNotExist", err)
	}
}

func TestLoadCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(path, []byte("OLCKPTgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ckpt.Load(path)
	if !errors.Is(err, olerrors.ErrCheckpointTruncated) {
		t.Fatalf("Load = %v, want ErrCheckpointTruncated", err)
	}
}

// TestSaveLoadResumeParity is the full file-level crash-resume
// property: halt → Save → Load → RestoreState → Run equals an
// uninterrupted run exactly, on both engines and at several halt
// points, including under an active fault plan via the runner (covered
// separately at machine level).
func TestSaveLoadResumeParity(t *testing.T) {
	for _, dense := range []bool{false, true} {
		name := "skip"
		if dense {
			name = "dense"
		}
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			ref, refK := buildMachine(t, cfg, dense)
			refStats, err := ref.Run()
			if err != nil {
				t.Fatal(err)
			}
			total := int64(refStats.ExecTime() / sim.CoreTicks)
			if total < 10 {
				t.Fatalf("reference run too short: %d cycles", total)
			}
			for _, h := range []int64{1, total / 4, total / 2, total - 1} {
				path := filepath.Join(t.TempDir(), "cell.ckpt")
				m, _ := buildMachine(t, cfg, dense)
				m.SetHaltAfter(h)
				meta := testMeta()
				m.SetCheckpoint(1<<30, func() error {
					st := m.CaptureState()
					mm := meta
					mm.CoreCycle = st.Engine.Now.CoreCycles()
					return ckpt.Save(path, &ckpt.Checkpoint{Meta: mm, Machine: st})
				})
				if _, err := m.Run(); !errors.Is(err, olerrors.ErrHalted) {
					t.Fatalf("halt at %d: Run = %v, want ErrHalted", h, err)
				}

				ck, err := ckpt.Load(path)
				if err != nil {
					t.Fatalf("halt at %d: %v", h, err)
				}
				// The engine never warps to the halt boundary: the state is
				// captured at the last fired event at or before it.
				if ck.Meta.CoreCycle > h {
					t.Fatalf("halt at %d: checkpoint stamped at cycle %d, past the halt", h, ck.Meta.CoreCycle)
				}
				m2, k2 := buildMachine(t, cfg, dense)
				if err := m2.RestoreState(ck.Machine); err != nil {
					t.Fatalf("halt at %d: restore: %v", h, err)
				}
				st2, err := m2.Run()
				if err != nil {
					t.Fatalf("halt at %d: resumed run: %v", h, err)
				}
				if st2.String() != refStats.String() {
					t.Fatalf("halt at %d: resumed stats diverge:\n%s\nwant\n%s", h, st2, refStats)
				}
				if !st2.Correct {
					t.Fatalf("halt at %d: resumed run verified incorrect", h)
				}
				if !k2.Store.Equal(refK.Store) {
					t.Fatalf("halt at %d: resumed final memory image differs", h)
				}
			}
		})
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := ckpt.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	run := stats.New(64)
	run.PIMCommands = 42
	entries := []ckpt.JournalEntry{
		{Key: "a", Hash: "h1", Run: run, HostLatency: 1.5, HostServed: 7},
		{Key: "b", Hash: "h2", Run: run},
	}
	for _, e := range entries {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ckpt.LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("loaded %d entries, want 2", len(got))
	}
	if e := got["h1"]; e.Key != "a" || e.HostLatency != 1.5 || e.HostServed != 7 || e.Run.PIMCommands != 42 {
		t.Fatalf("entry h1 = %+v", e)
	}
}

func TestJournalMissingFileIsEmpty(t *testing.T) {
	got, err := ckpt.LoadJournal(filepath.Join(t.TempDir(), "absent.jsonl"))
	if err != nil || len(got) != 0 {
		t.Fatalf("LoadJournal = %v entries, %v; want empty, nil", got, err)
	}
}

func TestJournalToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := ckpt.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(ckpt.JournalEntry{Key: "a", Hash: "h1"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// A crash mid-append leaves a partial final line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"Key":"b","Hash":"h2","Ru`)
	f.Close()
	got, err := ckpt.LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got["h1"].Key != "a" {
		t.Fatalf("torn journal loaded as %+v", got)
	}
}

func TestJournalRejectsCorruptMiddle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	content := `{"Key":"a","Hash":"h1"}` + "\n" +
		`{"Key":"b","Hash":` + "\n" + // malformed, NOT the final line
		`{"Key":"c","Hash":"h3"}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.LoadJournal(path); err == nil {
		t.Fatal("corrupt mid-journal line accepted")
	}
}

func TestJournalRejectsMissingHash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	content := `{"Key":"a"}` + "\n" + `{"Key":"b","Hash":"h2"}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.LoadJournal(path); err == nil {
		t.Fatal("hashless entry followed by more lines accepted")
	}
}
