package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"orderlight/internal/stats"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := openJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := stats.New(64)
	run.PIMCommands = 42
	entries := []journalEntry{
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
	got, err := loadJournal(path)
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
	got, err := loadJournal(filepath.Join(t.TempDir(), "absent.jsonl"))
	if err != nil || len(got) != 0 {
		t.Fatalf("LoadJournal = %v entries, %v; want empty, nil", got, err)
	}
}

func TestJournalToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := openJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journalEntry{Key: "a", Hash: "h1"}); err != nil {
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
	got, err := loadJournal(path)
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
	if _, err := loadJournal(path); err == nil {
		t.Fatal("corrupt mid-journal line accepted")
	}
}

func TestJournalRejectsMissingHash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	content := `{"Key":"a"}` + "\n" + `{"Key":"b","Hash":"h2"}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadJournal(path); err == nil {
		t.Fatal("hashless entry followed by more lines accepted")
	}
}

// TestJournalConcurrentWriters models two runs of one request sharing
// a checkpoint directory (two independent journal handles, no shared
// mutex) appending completion records to one file at the same time.
// O_APPEND plus one-write-per-entry must keep every line intact.
func TestJournalConcurrentWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	const perWriter = 50

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		j, err := openJournal(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, j *cellJournal) {
			defer wg.Done()
			defer j.Close()
			for i := 0; i < perWriter; i++ {
				e := journalEntry{
					Key:  fmt.Sprintf("w%d-cell%d", w, i),
					Hash: fmt.Sprintf("w%d-%04d", w, i),
					Run:  &stats.Run{},
				}
				if err := j.Append(e); err != nil {
					t.Errorf("writer %d append %d: %v", w, i, err)
					return
				}
			}
		}(w, j)
	}
	wg.Wait()

	got, err := loadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2*perWriter {
		t.Fatalf("journal holds %d entries, want %d", len(got), 2*perWriter)
	}
	for w := 0; w < 2; w++ {
		for i := 0; i < perWriter; i++ {
			if _, ok := got[fmt.Sprintf("w%d-%04d", w, i)]; !ok {
				t.Fatalf("entry w%d-%04d lost", w, i)
			}
		}
	}
}

// TestJournalTornTailAfterConcurrentWrites: a crash mid-append leaves
// a partial final line; everything the two writers acknowledged before
// it must still load.
func TestJournalTornTailAfterConcurrentWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		j, err := openJournal(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, j *cellJournal) {
			defer wg.Done()
			defer j.Close()
			for i := 0; i < 10; i++ {
				j.Append(journalEntry{Hash: fmt.Sprintf("w%d-%d", w, i), Run: &stats.Run{}})
			}
		}(w, j)
	}
	wg.Wait()

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"Hash":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, err := loadJournal(path)
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	if len(got) != 20 {
		t.Fatalf("journal holds %d entries, want 20", len(got))
	}
}

// TestJournalCorruptMiddleIsLoud: damage anywhere but the tail means
// the journal is corrupt, not merely torn — later appends landed after
// the damage, so silently resuming would drop acknowledged work.
func TestJournalCorruptMiddleIsLoud(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := openJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(journalEntry{Hash: "a", Run: &stats.Run{}})
	j.Close()

	// A torn line that was NOT the final write: another writer's entry
	// landed after it.
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString("{\"Hash\":\"torn\n")
	f.Close()
	j2, err := openJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	j2.Append(journalEntry{Hash: "b", Run: &stats.Run{}})
	j2.Close()

	if _, err := loadJournal(path); err == nil {
		t.Fatal("corrupt middle loaded silently")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error %v does not name the corrupt line", err)
	}
}

// FuzzLoadJournal feeds arbitrary bytes to the journal decoder — the
// one decoder a resume reads from disk. It must never panic, and every
// entry it accepts must carry its cell hash. Then the accepted entries
// are written back the way Append writes them, a torn prefix of one
// more entry is added (a crash mid-append), and the result must load
// with every accepted entry intact. Cut back to its last complete line
// and appended to, as a resume does, it must load once more.
func FuzzLoadJournal(f *testing.F) {
	valid := `{"Key":"z","Hash":"hz","Run":{"PIMCommands":3},"HostLatency":1.5,"HostServed":2,"Fault":null}`
	f.Add([]byte(""), 0)
	f.Add([]byte(valid+"\n"), 10)
	f.Add([]byte(valid+"\n"+strings.Replace(valid, "hz", "hy", 1)+"\n"), len(valid)-1)
	f.Add([]byte(valid+"\n"+`{"Key":"b","Hash":`), 5)
	f.Add([]byte(`{"Key":"a"}`+"\n"+valid+"\n"), 0)
	f.Add([]byte("\n\n"+valid), 3)
	f.Add([]byte(`{"Hash":"x","Run":{"PIMCommands":"nope"}}`+"\n"), 20)
	f.Fuzz(func(t *testing.T, data []byte, cut int) {
		got, err := readJournal(bytes.NewReader(data), "fuzz")
		if err != nil {
			return
		}
		var buf bytes.Buffer
		for h, e := range got {
			if h == "" || e.Hash != h {
				t.Fatalf("accepted entry %+v under key %q", e, h)
			}
			line, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(line, '\n'))
		}
		if cut < 0 {
			cut = -cut
		}
		buf.WriteString(valid[:cut%len(valid)])
		torn := append([]byte(nil), buf.Bytes()...)
		again, err := readJournal(&buf, "fuzz")
		if err != nil {
			t.Fatalf("torn tail after %d accepted entries refused: %v", len(got), err)
		}
		for h := range got {
			if _, ok := again[h]; !ok {
				t.Fatalf("entry %q lost behind a torn tail", h)
			}
		}
		// A resume cuts the torn tail before it appends (openJournal),
		// so the next resume reads every entry plus the appended one.
		appended := append(torn[:completeLen(torn)], strings.Replace(valid, `"hz"`, `"h-appended"`, 1)+"\n"...)
		after, err := readJournal(bytes.NewReader(appended), "fuzz")
		if err != nil {
			t.Fatalf("append after a trimmed torn tail refused: %v", err)
		}
		for h := range got {
			if _, ok := after[h]; !ok {
				t.Fatalf("entry %q lost when the torn tail was cut", h)
			}
		}
		if _, ok := after["h-appended"]; !ok {
			t.Fatal("entry appended after the cut tail is missing")
		}
	})
}
