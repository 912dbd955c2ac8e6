package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"orderlight/internal/config"
	"orderlight/internal/experiments"
	"orderlight/internal/kernel"
	"orderlight/internal/serve"
)

// cellSpec is one single-kernel simulation drawn from the paper's
// grids: a Table 2 kernel, an ordering primitive, a temporary-storage
// size and a per-channel footprint.
type cellSpec struct {
	Kernel    string
	Primitive config.Primitive
	TS        string // fraction of the row buffer, as in experiments.TSFractions
	Bytes     int64  // per-channel footprint of the primary data structure
}

func (c cellSpec) String() string {
	return fmt.Sprintf("%s/%v/ts=%s/%dB", c.Kernel, c.Primitive, c.TS, c.Bytes)
}

// config is the Table 1 default with the cell's primitive and TS size.
func (c cellSpec) config() config.Config {
	cfg := config.Default()
	cfg.Run.Primitive = c.Primitive
	return cfg.WithTSFraction(c.TS)
}

// request is the single-kernel job for the cell. Runner parallelism is
// pinned to 1: one op is one cell on one core.
func (c cellSpec) request() serve.JobRequest {
	cfg := c.config()
	return serve.JobRequest{
		Kind: serve.KindKernel, Kernel: c.Kernel, Bytes: c.Bytes, Config: &cfg,
		Opts: serve.RunOpts{Parallelism: 1},
	}
}

// footprints is a log-uniform per-channel footprint range.
type footprints struct{ lo, hi int64 }

var (
	// simFootprints spans the fig12/fig13 range: the smallest smoke
	// footprint up to the experiments' default scale, straddling the
	// 192 KiB per-channel L2 share.
	simFootprints = footprints{16 << 10, 256 << 10}
	// serveFootprints keeps serve-mix misses short so a run holds
	// thousands of jobs.
	serveFootprints = footprints{16 << 10, 64 << 10}
)

// footprintStep is the footprint granularity: one PIM command's bytes
// at the default BMF, so distinct footprints mean distinct work.
const footprintStep = 512

// pairs lists every (kernel, primitive) combination the streams draw:
// the 12 Table 2 kernels under fence and OrderLight.
func pairs() []cellSpec {
	var out []cellSpec
	for _, name := range kernel.Names() {
		for _, p := range []config.Primitive{config.PrimitiveFence, config.PrimitiveOrderLight} {
			out = append(out, cellSpec{Kernel: name, Primitive: p})
		}
	}
	return out
}

// cellStream is an endless seeded stream of distinct cells, generated
// in rounds. Each round runs every (kernel, primitive) pair once. The
// log-uniform footprint range is cut into one stratum per pair; in
// round r pair j draws its footprint from stratum (j+r) mod len(pairs)
// and its TS size from the four sizes in turn, so every round uses
// each stratum once and over len(pairs) rounds every pair visits every
// stratum once (a Latin square). The seed picks the footprint inside
// each stratum and the order of the cells within each round. Two seeds
// therefore give different cells with nearly the same mix of work,
// which keeps per-run figures comparable across seeds; the marginal
// footprint distribution is still log-uniform.
type cellStream struct {
	rng   *rand.Rand
	fp    footprints
	pairs []cellSpec
	round int
	buf   []cellSpec
	seen  map[cellSpec]bool
}

func newCellStream(seed uint64, salt uint64, fp footprints) *cellStream {
	return &cellStream{rng: rand.New(rand.NewPCG(seed, salt)), fp: fp, pairs: pairs(), seen: make(map[cellSpec]bool)}
}

// next returns the stream's next cell.
func (s *cellStream) next() cellSpec {
	if len(s.buf) == 0 {
		s.fillRound()
	}
	c := s.buf[0]
	s.buf = s.buf[1:]
	return c
}

func (s *cellStream) fillRound() {
	n := len(s.pairs)
	nts := len(experiments.TSFractions)
	round := make([]cellSpec, n)
	for j, p := range s.pairs {
		stratum := (j + s.round) % n
		u := (float64(stratum) + s.rng.Float64()) / float64(n)
		c := p
		c.TS = experiments.TSFractions[(j+s.round)%nts]
		c.Bytes = s.fp.at(u)
		for s.seen[c] {
			c.Bytes += footprintStep
		}
		s.seen[c] = true
		round[j] = c
	}
	s.rng.Shuffle(n, func(a, b int) { round[a], round[b] = round[b], round[a] })
	s.buf = round
	s.round++
}

// at maps a quantile u in [0,1) to a footprint rounded to the step.
func (f footprints) at(u float64) int64 {
	b := float64(f.lo) * math.Pow(float64(f.hi)/float64(f.lo), u)
	r := int64(b/footprintStep) * footprintStep
	if r < f.lo {
		r = f.lo
	}
	return r
}

// take returns the stream's next n cells.
func (s *cellStream) take(n int) []cellSpec {
	out := make([]cellSpec, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// warmupCells is the seed-independent warm-up set every sim run
// executes (and discards) before timing: each kernel once under
// OrderLight at a mid-range footprint, enough to grow the heap and
// touch every code path. Being seed-independent keeps set-up time
// comparable across seeds.
func warmupCells() []cellSpec {
	var out []cellSpec
	for _, name := range kernel.Names() {
		out = append(out, cellSpec{Kernel: name, Primitive: config.PrimitiveOrderLight, TS: "1/8", Bytes: 64 << 10})
	}
	return out
}

// serveOp is one job in a serve-mix client's stream: either a new
// request (never submitted before) or a repeat of a request that has
// already completed.
type serveOp struct {
	Repeat bool
	Req    int // index into servePlan's request list
}

// One op in each block of blockLen consecutive ops of a client is a
// new request, at a seeded position; the rest repeat. The repeat share
// (3/4) sits far from both percentile cut points: the median lands in
// the repeat class and the tail (p90 and up) in the new class.
const blockLen = 4

// servePlan generates the serve-mix request stream. Distinct requests
// come from one shared cell stream: the first primed of them are
// completed during set-up, and client c's k-th new request is shared
// index primed + k*clients + c, so the stream is a pure function of
// the seed however the clients interleave at run time. A repeat
// references a primed request or one of the same client's own earlier
// new requests, all of which have completed by construction (each
// client runs a closed loop).
type servePlan struct {
	primed  int
	clients int

	mu     sync.Mutex
	stream *cellStream
	reqs   []cellSpec
}

func newServePlan(seed uint64, clients, primed int) *servePlan {
	return &servePlan{primed: primed, clients: clients, stream: newCellStream(seed, 0x5e12e, serveFootprints)}
}

// request returns distinct request i, generating the shared stream up
// to it.
func (p *servePlan) request(i int) cellSpec {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.reqs) <= i {
		p.reqs = append(p.reqs, p.stream.next())
	}
	return p.reqs[i]
}

// client returns client c's op generator.
func (p *servePlan) client(seed uint64, c int) *serveClient {
	done := make([]int, p.primed)
	for i := range done {
		done[i] = i
	}
	return &serveClient{plan: p, id: c, rng: rand.New(rand.NewPCG(seed, 0xc11e+uint64(c))), done: done}
}

// serveClient yields one client's ops.
type serveClient struct {
	plan  *servePlan
	id    int
	rng   *rand.Rand
	done  []int // completed request indices this client may repeat
	news  int   // new requests issued so far
	ops   int   // ops issued so far
	newAt int   // position of the current block's new request
}

func (c *serveClient) next() serveOp {
	if c.ops%blockLen == 0 {
		c.newAt = c.rng.IntN(blockLen)
	}
	isNew := c.ops%blockLen == c.newAt
	c.ops++
	if !isNew {
		return serveOp{Repeat: true, Req: c.done[c.rng.IntN(len(c.done))]}
	}
	req := c.plan.primed + c.news*c.plan.clients + c.id
	c.news++
	// The client's loop is closed: by the time next is called again
	// this request has completed, so later repeats may reference it.
	c.done = append(c.done, req)
	return serveOp{Req: req}
}
