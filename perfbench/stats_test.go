package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(200)
	for _, tc := range []struct {
		p            float64
		want         float64
		beyondWanted int
	}{
		{50, 100, 100},
		{90, 180, 20},
		{99, 198, 2},
		{100, 200, 0},
	} {
		v, beyond := percentile(xs, tc.p)
		if v != tc.want || beyond != tc.beyondWanted {
			t.Errorf("p%g of 1..200 = %g with %d beyond, want %g with %d", tc.p, v, beyond, tc.want, tc.beyondWanted)
		}
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{99, 90, 9, false}, // p90 of 99 samples is nearly a maximum: refused
		{100, 90, 10, true},
		{999, 99, 9, false},
		{1000, 99, 10, true},
		{10000, 99.9, 10, true}, // no float error pushing the rank up
	} {
		v, beyond, ok := tail(seq(tc.n), tc.p)
		if ok != tc.ok || beyond != tc.beyond {
			t.Errorf("n=%d p%g: %d beyond ok=%t, want %d ok=%t", tc.n, tc.p, beyond, ok, tc.beyond, tc.ok)
		}
		if v != float64(tc.n-beyond) {
			t.Errorf("n=%d p%g: value %g, want %d", tc.n, tc.p, v, tc.n-beyond)
		}
	}
	if _, _, ok := tail(nil, 90); ok {
		t.Error("tail of no samples accepted")
	}
}

// A window that reaches minTailOps always has the samples its tail
// percentile needs.
func TestMinTailOpsCoversEveryWorkload(t *testing.T) {
	for w, p := range tailPercentile {
		if _, ok := workloads[w]; !ok {
			t.Errorf("tail percentile declared for unknown workload %q", w)
		}
		n := minTailOps(p)
		if _, beyond, ok := tail(seq(n), p); !ok {
			t.Errorf("%s: %d ops leave only %d samples beyond p%g", w, n, beyond, p)
		}
		if p < 90 {
			t.Errorf("%s reports p%g; the tail must be at least p90", w, p)
		}
	}
	for w := range workloads {
		if _, ok := tailPercentile[w]; !ok {
			t.Errorf("workload %q has no tail percentile", w)
		}
	}
}

// quartiles must match Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},    // quantiles(range(1, 11), n=4)
		{seq(2), [3]float64{0.75, 1.5, 2.25}},     // quantiles([1, 2], n=4) extrapolates
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}}, // unsorted input
		{[]float64{10, 12, 11, 13, 15, 14, 9, 16, 8, 17}, [3]float64{9.75, 12.5, 15.25}},
	} {
		q1, med, q3, err := quartiles(tc.xs)
		if err != nil {
			t.Fatal(err)
		}
		got := [3]float64{q1, med, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value did not fail")
	}
}
