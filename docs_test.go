package orderlight

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Documentation drifts when a flag is renamed but its mention in the
// operator docs is not. This test extracts every backticked -flag
// token from the top-level documents and checks that a flag of
// that name is actually registered somewhere in the CLIs (or the
// shared cliflags groups). It is deliberately one-directional:
// documenting a nonexistent flag fails; an undocumented flag does not
// (not every debugging knob belongs in the operator docs).

// docFlagFiles are the documents whose flag mentions must be real.
var docFlagFiles = []string{"ARCHITECTURE.md", "DESIGN.md", "EXPERIMENTS.md", "OPERATIONS.md", "README.md"}

// flagSourceFiles is where flags are registered.
var flagSourceGlobs = []string{"cmd/*/main.go", "internal/cliflags/*.go"}

// docFlagAllowlist holds tokens that look like our flags but belong to
// other tools (the Go toolchain, make, shell examples).
var docFlagAllowlist = map[string]bool{
	"race":      true, // go test -race
	"bench":     true, // go test -bench
	"benchtime": true,
	"benchmem":  true,
	"fuzz":      true,
	"fuzztime":  true,
	"run":       true, // go test -run
	"l":         true, // gofmt -l
	"d":         true, // curl -d
	"s":         true, // curl -s
	"sN":        true, // curl -sN
	"X":         true, // curl -X
	"TERM":      true, // kill -TERM
}

// backtickSpan matches inline code spans and fenced code blocks alike
// once the file is scanned span-by-span.
var (
	codeSpan = regexp.MustCompile("(?s)```.*?```|`[^`\n]+`")
	flagTok  = regexp.MustCompile(`(^|[\s=(\[])-([a-zA-Z][a-zA-Z0-9-]*)`)
	flagReg  = regexp.MustCompile(`\.(?:String|Bool|Int|Int64|Uint64|Float64|Duration)(?:Var)?\(\s*(?:&[\w.]+,\s*)?"([a-z][a-z0-9-]*)"`)
)

// registeredFlags collects every flag name the binaries define.
func registeredFlags(t *testing.T) map[string]bool {
	t.Helper()
	flags := map[string]bool{}
	for _, glob := range flagSourceGlobs {
		paths, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) == 0 {
			t.Fatalf("flag source glob %q matched nothing", glob)
		}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range flagReg.FindAllStringSubmatch(string(src), -1) {
				flags[m[1]] = true
			}
		}
	}
	if !flags["addr"] || !flags["cache-dir"] || !flags["engine"] {
		t.Fatalf("flag registration scan looks broken: got %d flags %v", len(flags), flags)
	}
	return flags
}

func TestDocumentedFlagsExist(t *testing.T) {
	flags := registeredFlags(t)
	for _, doc := range docFlagFiles {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("operator doc missing: %v", err)
		}
		checked := 0
		for _, span := range codeSpan.FindAllString(string(data), -1) {
			for _, m := range flagTok.FindAllStringSubmatch(span, -1) {
				name := m[2]
				if docFlagAllowlist[name] {
					continue
				}
				// -engine=dense style: the value after = is not a flag.
				name = strings.SplitN(name, "=", 2)[0]
				checked++
				if !flags[name] {
					t.Errorf("%s documents flag -%s, but no CLI registers it", doc, name)
				}
			}
		}
		if checked == 0 {
			t.Errorf("%s: no backticked -flag tokens found; extraction regex broken?", doc)
		}
	}
}

// The reverse direction for the operator-critical olserve surface:
// every flag olserve registers must appear in OPERATIONS.md, since that
// file claims to be the complete reference.
func TestOperationsCoversOlserveFlags(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("cmd", "olserve", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	ops, err := os.ReadFile("OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range flagReg.FindAllStringSubmatch(string(src), -1) {
		if !strings.Contains(string(ops), "`-"+m[1]+"`") {
			t.Errorf("olserve registers -%s but OPERATIONS.md's reference tables do not mention `-%s`", m[1], m[1])
		}
	}
}
