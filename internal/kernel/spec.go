// Package kernel defines the PIM-kernel intermediate representation and
// the generators for the paper's entire workload suite (Table 2): the
// five stream kernels and the seven data-intensive application kernels.
//
// A kernel is described by its per-tile phase structure: each phase is a
// group of independent fine-grained PIM commands (the "< N times" groups
// of Figure 4), and every phase boundary carries an ordering requirement
// that the generator realizes as a fence, an OrderLight packet, or
// nothing, depending on the configured primitive. The temporary-storage
// size N = TS/32 scales the command count of most phases; kernels with
// structural ordering (FC's dot-product reductions, Gen_Fil's fixed
// 128 B granularity) carry phase sizes or extra ordering points that do
// not scale with TS — which is exactly why they keep high
// primitives-per-instruction rates at large TS in Figure 12.
package kernel

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"orderlight/internal/isa"
	"orderlight/internal/olerrors"
)

// PhaseSpec is one command group within a tile.
type PhaseSpec struct {
	Name string
	Kind isa.Kind
	Op   isa.ALUOp
	Vec  int   // data-structure index addressed by this phase (mem kinds)
	Imm  int32 // scalar immediate

	// CmdsPerN scales the phase's command count with the tile size N
	// (commands = round(CmdsPerN * N), minimum 1). Ignored when
	// FixedCmds > 0.
	CmdsPerN float64
	// FixedCmds pins the phase's command count regardless of TS
	// (Gen_Fil's 128 B granularity = 4 commands).
	FixedCmds int
	// RandomRows makes the phase address pseudo-random rows of its data
	// structure instead of streaming sequentially (histogram bins,
	// genomic seed lookups).
	RandomRows bool
}

// Spec is a complete workload description (one row of Table 2).
type Spec struct {
	Name         string
	Desc         string
	ComputeRatio string // compute:memory ratio as printed in Table 2
	DataStructs  int    // distinct data structures accessed
	MultiDS      bool   // Table 2's "more than one data structure?" column
	Phases       []PhaseSpec
	// ExtraOrderEvery inserts an additional ordering primitive after
	// every that many commands inside scaling phases — the structural
	// ordering of reduction-style kernels (FC, KMeans) that does not
	// amortize with larger TS.
	ExtraOrderEvery int

	// SpreadTiles places tile t in memory-group t mod GroupsPerChannel
	// instead of keeping all operands in group 0. Ordering stays within
	// each tile's group (the OrderLight packets carry that group's ID),
	// so independent tiles proceed in parallel across bank groups — an
	// operand-placement optimization the per-group ordering of §5.3.1
	// makes safe.
	SpreadTiles bool
}

// WithSpread returns a copy of the spec with tile spreading enabled and
// the name suffixed accordingly.
func WithSpread(s Spec) Spec {
	s.SpreadTiles = true
	s.Name += "_spread"
	return s
}

// Validate checks a (possibly user-defined) spec for structural
// soundness before generation. Any violation is reported wrapping
// olerrors.ErrInvalidSpec, so callers can classify with errors.Is.
func (s Spec) Validate() error {
	if err := s.validate(); err != nil {
		return fmt.Errorf("%w: %v", olerrors.ErrInvalidSpec, err)
	}
	return nil
}

// maxPhaseCmds bounds a single phase's command count (fixed or scaled):
// beyond it a spec describes a program no real kernel resembles and
// generation would only burn memory. The Table 2 suite peaks at
// CmdsPerN 14.
const maxPhaseCmds = 1 << 16

func (s Spec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("kernel: spec needs a name")
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("kernel: spec %q has no phases", s.Name)
	}
	if s.ExtraOrderEvery < 0 {
		return fmt.Errorf("kernel: spec %q has negative ExtraOrderEvery", s.Name)
	}
	if s.DataStructs < 0 {
		return fmt.Errorf("kernel: spec %q has negative DataStructs", s.Name)
	}
	hasMem := false
	for i, p := range s.Phases {
		switch {
		case p.Kind == isa.KindFence || p.Kind == isa.KindOrderLight:
			return fmt.Errorf("kernel: spec %q phase %d: ordering primitives are inserted by the generator, not listed as phases", s.Name, i)
		case !p.Kind.IsPIM():
			return fmt.Errorf("kernel: spec %q phase %d: kind %v is not a PIM command", s.Name, i, p.Kind)
		case p.FixedCmds < 0:
			return fmt.Errorf("kernel: spec %q phase %d: negative FixedCmds", s.Name, i)
		case p.FixedCmds > maxPhaseCmds:
			return fmt.Errorf("kernel: spec %q phase %d: FixedCmds %d exceeds %d", s.Name, i, p.FixedCmds, maxPhaseCmds)
		case math.IsNaN(p.CmdsPerN) || math.IsInf(p.CmdsPerN, 0):
			return fmt.Errorf("kernel: spec %q phase %d: CmdsPerN %v is not finite", s.Name, i, p.CmdsPerN)
		case p.FixedCmds == 0 && p.CmdsPerN <= 0:
			return fmt.Errorf("kernel: spec %q phase %d: needs CmdsPerN > 0 or FixedCmds > 0", s.Name, i)
		case p.CmdsPerN > maxPhaseCmds:
			return fmt.Errorf("kernel: spec %q phase %d: CmdsPerN %v exceeds %d", s.Name, i, p.CmdsPerN, maxPhaseCmds)
		}
		if p.Kind.IsMemAccess() {
			hasMem = true
			if p.Vec < 0 {
				return fmt.Errorf("kernel: spec %q phase %d: negative vec %d", s.Name, i, p.Vec)
			}
			if s.DataStructs > 0 && p.Vec >= s.DataStructs {
				return fmt.Errorf("kernel: spec %q phase %d: vec %d outside [0,%d)", s.Name, i, p.Vec, s.DataStructs)
			}
		}
	}
	if !hasMem {
		return fmt.Errorf("kernel: spec %q has no memory phase (nothing reaches DRAM)", s.Name)
	}
	return nil
}

// cmds returns the command count of phase p for tile size n.
func (p PhaseSpec) cmds(n int) int {
	if p.FixedCmds > 0 {
		return p.FixedCmds
	}
	c := int(p.CmdsPerN*float64(n) + 0.5)
	if c < 1 {
		c = 1
	}
	return c
}

// Stream returns the five stream-benchmark kernels of Table 2.
func Stream() []Spec {
	return []Spec{
		{
			Name: "scale", Desc: "a[i] = scalar*a[i]", ComputeRatio: "1:1",
			DataStructs: 1, MultiDS: false,
			Phases: []PhaseSpec{
				{Name: "scale a", Kind: isa.KindPIMScale, Op: isa.OpScale, Vec: 0, Imm: 3, CmdsPerN: 1},
			},
		},
		{
			Name: "copy", Desc: "b[i] = a[i]", ComputeRatio: "0:2",
			DataStructs: 2, MultiDS: true,
			Phases: []PhaseSpec{
				{Name: "load a", Kind: isa.KindPIMLoad, Vec: 0, CmdsPerN: 1},
				{Name: "store b", Kind: isa.KindPIMStore, Vec: 1, CmdsPerN: 1},
			},
		},
		{
			Name: "daxpy", Desc: "b[i] = b[i] + scalar*a[i]", ComputeRatio: "2:2",
			DataStructs: 2, MultiDS: true,
			Phases: []PhaseSpec{
				{Name: "load b", Kind: isa.KindPIMLoad, Vec: 1, CmdsPerN: 1},
				{Name: "mac a", Kind: isa.KindPIMCompute, Op: isa.OpMAC, Vec: 0, Imm: 3, CmdsPerN: 1},
				{Name: "store b", Kind: isa.KindPIMStore, Vec: 1, CmdsPerN: 1},
			},
		},
		{
			Name: "triad", Desc: "c[i] = a[i] + scalar*b[i]", ComputeRatio: "2:3",
			DataStructs: 3, MultiDS: true,
			Phases: []PhaseSpec{
				{Name: "load a", Kind: isa.KindPIMLoad, Vec: 0, CmdsPerN: 1},
				{Name: "mac b", Kind: isa.KindPIMCompute, Op: isa.OpMAC, Vec: 1, Imm: 3, CmdsPerN: 1},
				{Name: "store c", Kind: isa.KindPIMStore, Vec: 2, CmdsPerN: 1},
			},
		},
		{
			Name: "add", Desc: "c[i] = a[i] + b[i]", ComputeRatio: "1:3",
			DataStructs: 3, MultiDS: true,
			Phases: []PhaseSpec{
				{Name: "load a", Kind: isa.KindPIMLoad, Vec: 0, CmdsPerN: 1},
				{Name: "add b", Kind: isa.KindPIMCompute, Op: isa.OpAdd, Vec: 1, CmdsPerN: 1},
				{Name: "store c", Kind: isa.KindPIMStore, Vec: 2, CmdsPerN: 1},
			},
		},
	}
}

// Apps returns the seven data-intensive application kernels of Table 2.
func Apps() []Spec {
	return []Spec{
		{
			Name: "bn_fwd", Desc: "batch normalization, forward phase", ComputeRatio: "7:3",
			DataStructs: 3, MultiDS: true,
			Phases: []PhaseSpec{
				{Name: "load x", Kind: isa.KindPIMLoad, Vec: 0, CmdsPerN: 1},
				{Name: "load stats", Kind: isa.KindPIMLoad, Vec: 1, CmdsPerN: 1},
				{Name: "scale", Kind: isa.KindPIMExec, Op: isa.OpMul, Imm: 2, CmdsPerN: 3.5},
				{Name: "bias", Kind: isa.KindPIMExec, Op: isa.OpAdd, Imm: 5, CmdsPerN: 3.5},
				{Name: "store y", Kind: isa.KindPIMStore, Vec: 2, CmdsPerN: 1},
			},
		},
		{
			Name: "bn_bwd", Desc: "batch normalization, backward phase", ComputeRatio: "14:6",
			DataStructs: 6, MultiDS: true,
			Phases: []PhaseSpec{
				{Name: "load dy", Kind: isa.KindPIMLoad, Vec: 0, CmdsPerN: 1},
				{Name: "load x", Kind: isa.KindPIMLoad, Vec: 1, CmdsPerN: 1},
				{Name: "load stats", Kind: isa.KindPIMLoad, Vec: 2, CmdsPerN: 1},
				{Name: "grad a", Kind: isa.KindPIMExec, Op: isa.OpMul, Imm: 2, CmdsPerN: 7},
				{Name: "grad b", Kind: isa.KindPIMExec, Op: isa.OpAdd, Imm: 1, CmdsPerN: 7},
				{Name: "store dx", Kind: isa.KindPIMStore, Vec: 3, CmdsPerN: 1},
				{Name: "store dgamma", Kind: isa.KindPIMStore, Vec: 4, CmdsPerN: 1},
				{Name: "store dbeta", Kind: isa.KindPIMStore, Vec: 5, CmdsPerN: 1},
			},
		},
		{
			Name: "fc", Desc: "fully-connected layer inference (dot products)", ComputeRatio: "2:1",
			DataStructs: 1, MultiDS: false,
			Phases: []PhaseSpec{
				{Name: "load w", Kind: isa.KindPIMLoad, Vec: 0, CmdsPerN: 1},
				{Name: "reduce", Kind: isa.KindPIMExec, Op: isa.OpAdd, Imm: 1, CmdsPerN: 2},
			},
			// Each 16-element dot product needs its own ordering point
			// for the reduction, independent of TS size.
			ExtraOrderEvery: 16,
		},
		{
			Name: "kmeans", Desc: "KMeans clustering (distance from centers)", ComputeRatio: "10:1",
			DataStructs: 1, MultiDS: false,
			Phases: []PhaseSpec{
				{Name: "load points", Kind: isa.KindPIMLoad, Vec: 0, CmdsPerN: 1},
				{Name: "distances", Kind: isa.KindPIMExec, Op: isa.OpSub, Imm: 4, CmdsPerN: 10},
			},
			// Center-update boundaries order every 24 commands.
			ExtraOrderEvery: 24,
		},
		{
			Name: "svm", Desc: "support vector machine scoring", ComputeRatio: "2.5:2",
			DataStructs: 3, MultiDS: true,
			Phases: []PhaseSpec{
				{Name: "load x", Kind: isa.KindPIMLoad, Vec: 0, CmdsPerN: 1},
				{Name: "mac w", Kind: isa.KindPIMCompute, Op: isa.OpMAC, Vec: 1, Imm: 2, CmdsPerN: 1},
				{Name: "margin", Kind: isa.KindPIMExec, Op: isa.OpMax, Imm: 0, CmdsPerN: 0.5},
				{Name: "store out", Kind: isa.KindPIMStore, Vec: 2, CmdsPerN: 1},
			},
		},
		{
			Name: "hist", Desc: "histogram (scattered bin updates)", ComputeRatio: "3:2",
			DataStructs: 2, MultiDS: true,
			Phases: []PhaseSpec{
				{Name: "load keys", Kind: isa.KindPIMLoad, Vec: 0, CmdsPerN: 1},
				{Name: "bump bins", Kind: isa.KindPIMScale, Op: isa.OpIncr, Vec: 1, Imm: 1, CmdsPerN: 1, RandomRows: true},
			},
		},
		{
			Name: "gen_fil", Desc: "genomic sequence filtering (GRIM algorithm)", ComputeRatio: "3:1",
			DataStructs: 1, MultiDS: false,
			Phases: []PhaseSpec{
				// Irregular 128 B (= 4 command) seed fetches; granularity
				// fixed by the algorithm, not by TS (§7.2).
				{Name: "load seeds", Kind: isa.KindPIMLoad, Vec: 0, FixedCmds: 4, RandomRows: true},
				{Name: "compare", Kind: isa.KindPIMExec, Op: isa.OpXor, Imm: 0, FixedCmds: 12},
			},
		},
	}
}

// All returns every Table 2 kernel: stream first, then applications.
func All() []Spec { return append(Stream(), Apps()...) }

// registry is All, built once for ByName and Names.
var registry = sync.OnceValue(All)

// ByName finds a kernel spec by its name. The spec is the caller's own:
// its Phases do not alias the registry. A miss is reported wrapping
// olerrors.ErrUnknownKernel.
func ByName(name string) (Spec, error) {
	for _, s := range registry() {
		if s.Name == name {
			s.Phases = slices.Clone(s.Phases)
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("kernel: %w %q (known: %v)", olerrors.ErrUnknownKernel, name, Names())
}

// Names lists every kernel name in registry order.
func Names() []string {
	all := registry()
	out := make([]string, len(all))
	for i, s := range all {
		out[i] = s.Name
	}
	return out
}
