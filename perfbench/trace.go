package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the layer boundary.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Op     int    `json:"op"`     // op id shared by all spans of one op
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	// Allocs is the heap allocations made during the span, counted
	// only for spans opened with counting on (single-goroutine layers,
	// where the process-wide counter belongs to the span alone).
	Allocs int64 `json:"allocs,omitempty"`
	// Work is the work the call did, as a count, where the layer
	// reports one: simulated core cycles for gpu.run, initial-image
	// slots for dram.clone.
	Work   int64 `json:"work,omitempty"`
	counts bool
	m0     uint64
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory; they are written out when the run
// ends. A nil *recorder records nothing, so the same layer code runs
// traced and untraced.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil recorder).
// counts turns on exact heap-allocation counting for the span.
func (r *recorder) begin(name string, op, parent int, counts bool) int {
	if r == nil {
		return -1
	}
	var m0 uint64
	if counts {
		m0 = mallocs()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(time.Since(r.epoch)), counts: counts, m0: m0})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	var m1 uint64
	r.mu.Lock()
	counts := r.spans[id].counts
	r.mu.Unlock()
	if counts {
		m1 = mallocs()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	s.End = now
	if counts {
		s.Allocs = int64(m1 - s.m0)
	}
}

// mallocs reads the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// setWork records span id's work count.
func (r *recorder) setWork(id int, n int64) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].Work = n
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span name, the summed self time in
// nanoseconds: each span's duration minus the part of its interval
// that its children cover. Children may overlap one another (they can
// run concurrently); the union of their intervals, clipped to the
// parent, is what gets subtracted, so no time is subtracted twice.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerTotal sums one span name's self time, allocations and work,
// and counts its spans and the distinct ops they belong to.
type layerTotal struct {
	SelfNS int64
	Allocs int64
	Work   int64
	Spans  int
	Ops    int
}

func layerTotals(spans []span) map[string]layerTotal {
	self := selfTimes(spans)
	out := make(map[string]layerTotal)
	type key struct {
		name string
		op   int
	}
	seen := make(map[key]bool)
	for _, s := range spans {
		t := out[s.Name]
		t.Allocs += s.Allocs
		t.Work += s.Work
		t.Spans++
		if k := (key{s.Name, s.Op}); !seen[k] {
			seen[k] = true
			t.Ops++
		}
		out[s.Name] = t
	}
	for name, ns := range self {
		t := out[name]
		t.SelfNS = ns
		out[name] = t
	}
	return out
}

// writeSpans writes the spans as JSON lines to path, creating its
// directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("encode span: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
