package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail estimated from fewer is one or two unlucky requests, not a
// property of the system.
const minBeyond = 10

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is
// not modified. NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// beyond counts the samples of an n-sample set that lie above its
// p-quantile rank.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// minSamples is the smallest sample count whose p-quantile has
// minBeyond samples beyond it.
func minSamples(p float64) int {
	n := minBeyond
	for beyond(n, p) < minBeyond {
		n++
	}
	return n
}

// tailPercentile is percentile, refusing a percentile that fewer than
// minBeyond samples lie beyond.
func tailPercentile(xs []float64, p float64) (float64, error) {
	if b := beyond(len(xs), p); b < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, fewer than %d", p*100, len(xs), b, minBeyond)
	}
	return percentile(xs, p), nil
}

// quartiles returns the three cut points of xs into four equal groups
// with the "exclusive" method of Python's statistics.quantiles, so the
// spreads -runs prints match what that function reports for the same
// values. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(ld-1, j))
		delta := float64(i*m - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out[0], out[1], out[2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
