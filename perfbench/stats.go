package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it
// may be reported: with fewer, the "percentile" is really a maximum.
const minBeyond = 10

// tailPercentile is the percentile op_tail_ms reports per workload:
// the highest decade rung (p90, p99, p99.9) that has at least
// minBeyond samples beyond it at the workload's size. It is fixed per
// workload rather than chosen per run, so a run that is slower or
// faster than usual, or a change that moves throughput, never flips
// the metric onto another rung; the window instead runs until the
// rung has its samples (see minTailOps).
var tailPercentile = map[string]float64{
	"sim-cold":  90, // about 200 ops per run
	"sim-warm":  99, // about 2000
	"serve-mix": 99, // about 3500
}

// minTailOps is the op count a window must reach before it may end:
// enough for percentile p to have minBeyond samples beyond it, plus a
// tenth for margin.
func minTailOps(p float64) int {
	n := int(math.Ceil(minBeyond/(1-p/100) - 1e-9))
	return n + n/10
}

// rank is the nearest-rank position (1-based) of percentile p in n
// sorted samples.
func rank(p float64, n int) int {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// percentile returns the nearest-rank percentile p of sorted samples
// and how many samples lie beyond it.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	k := rank(p, len(sorted))
	return sorted[k-1], len(sorted) - k
}

// tail returns percentile p of sorted samples and how many lie beyond
// it. It refuses (ok=false) when fewer than minBeyond do: the value
// would really be a maximum.
func tail(sorted []float64, p float64) (value float64, beyond int, ok bool) {
	if len(sorted) == 0 {
		return 0, 0, false
	}
	value, beyond = percentile(sorted, p)
	return value, beyond, beyond >= minBeyond
}

// sortedCopy returns the samples in ascending order.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quartiles returns Q1, median and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method)
// computes them, so spreads printed here match any re-analysis.
func quartiles(xs []float64) (q1, med, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, got %d", len(xs))
	}
	d := sortedCopy(xs)
	ld := len(d)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}

// median of unsorted values (mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	d := sortedCopy(xs)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// mean of the values; NaN when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
