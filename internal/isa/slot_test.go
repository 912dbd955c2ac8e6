package isa

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// allOps lists every defined ALUOp.
var allOps = []ALUOp{OpNop, OpAdd, OpMul, OpMAC, OpScale, OpCopy, OpSub, OpMax, OpXor, OpIncr}

// edgeLanes are lane values that overflow int32 arithmetic in every op.
var edgeLanes = []int32{math.MinInt32, math.MaxInt32, -1, 0, 1, math.MinInt32 + 1, math.MaxInt32 - 1}

// lanes returns n seeded lane values, the first of them int32 edge cases.
func lanes(rng *rand.Rand, n int) []int32 {
	v := make([]int32, n)
	for l := range v {
		if l < len(edgeLanes) && rng.IntN(2) == 0 {
			v[l] = edgeLanes[rng.IntN(len(edgeLanes))]
		} else {
			v[l] = int32(rng.Uint32())
		}
	}
	return v
}

// TestApplySlotMatchesApply checks both slot-wide forms against the
// per-lane reference Apply for every op, at 1, 4 and 128 lanes, with
// int32 overflow in lanes and immediates, and under the aliasing the PIM
// unit uses: dst == ts for compute and exec, ts == operand for scale.
func TestApplySlotMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 1))
	imms := []int32{0, 1, -1, 3, math.MinInt32, math.MaxInt32, int32(rng.Uint32())}
	for _, op := range allOps {
		for _, n := range []int{1, 4, 128} {
			for _, imm := range imms {
				ts, operand := lanes(rng, n), lanes(rng, n)
				tsIn, operandIn := slices.Clone(ts), slices.Clone(operand)
				want := make([]int32, n)
				check := func(form string, got []int32) {
					t.Helper()
					if !slices.Equal(got, want) {
						t.Fatalf("%v %s, %d lanes, imm %d: got %v, want %v", op, form, n, imm, got, want)
					}
				}

				for l := range want {
					want[l] = op.Apply(ts[l], operand[l], imm)
				}
				dst := make([]int32, n)
				op.ApplySlot(dst, ts, operand, imm)
				check("ApplySlot", dst)
				if !slices.Equal(ts, tsIn) || !slices.Equal(operand, operandIn) {
					t.Fatalf("%v ApplySlot wrote to its inputs", op)
				}
				inPlace := slices.Clone(ts)
				op.ApplySlot(inPlace, inPlace, operand, imm)
				check("ApplySlot dst==ts", inPlace)

				for l := range want {
					want[l] = op.Apply(operand[l], operand[l], imm)
				}
				op.ApplySlot(dst, operand, operand, imm)
				check("ApplySlot ts==operand", dst)

				for l := range want {
					want[l] = op.Apply(ts[l], imm, imm)
				}
				op.ApplyScalar(dst, ts, imm)
				check("ApplyScalar", dst)
				inPlace = slices.Clone(ts)
				op.ApplyScalar(inPlace, inPlace, imm)
				check("ApplyScalar dst==ts", inPlace)
			}
		}
	}
}

func TestApplySlotPanicsOnUnknown(t *testing.T) {
	v := []int32{1, 2, 3, 4}
	for name, f := range map[string]func(){
		"ApplySlot":   func() { ALUOp(99).ApplySlot(v, v, v, 1) },
		"ApplyScalar": func() { ALUOp(99).ApplyScalar(v, v, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on unknown op did not panic", name)
				}
			}()
			f()
		}()
	}
}
