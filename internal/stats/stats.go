// Package stats provides the statistical metrics used throughout the
// NetDPSyn evaluation: Jensen-Shannon divergence, Earth Mover's Distance,
// total variation, entropy, and Spearman and Pearson correlation. The
// functions operate on plain float64 slices, or on count maps keyed by
// category, so they can be used on marginal tables, attribute columns,
// and metric vectors alike.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrLengthMismatch is returned when two inputs that must be paired
// element-wise have different lengths.
var ErrLengthMismatch = errors.New("stats: input length mismatch")

// ErrEmpty is returned when an input that must be non-empty is empty.
var ErrEmpty = errors.New("stats: empty input")

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than
// two samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the minimum of xs. It returns 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It returns 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Normalize scales xs in place so it sums to one, treating negative
// entries as zero. If every entry is non-positive the result is the
// uniform distribution. It returns the slice for chaining.
func Normalize(xs []float64) []float64 {
	var s float64
	for i, x := range xs {
		if x < 0 {
			xs[i] = 0
		} else {
			s += x
		}
	}
	if s <= 0 {
		u := 1.0 / float64(len(xs))
		for i := range xs {
			xs[i] = u
		}
		return xs
	}
	for i := range xs {
		xs[i] /= s
	}
	return xs
}

// klTerm computes p*log2(p/q) with the 0*log(0) = 0 convention.
func klTerm(p, q float64) float64 {
	if p <= 0 {
		return 0
	}
	if q <= 0 {
		return math.Inf(1)
	}
	return p * math.Log2(p/q)
}

// JSD computes the Jensen-Shannon divergence (base-2 logarithm, so the
// result lies in [0, 1]) between two distributions given as
// non-negative weight vectors of equal length. The inputs are
// normalized internally and are not modified.
func JSD(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, ErrLengthMismatch
	}
	if len(p) == 0 {
		return 0, ErrEmpty
	}
	pn := Normalize(append([]float64(nil), p...))
	qn := Normalize(append([]float64(nil), q...))
	var jsd float64
	for i := range pn {
		m := (pn[i] + qn[i]) / 2
		jsd += klTerm(pn[i], m)/2 + klTerm(qn[i], m)/2
	}
	if jsd < 0 { // floating point guard
		jsd = 0
	}
	return jsd, nil
}

// JSDCounts computes JSD between two count histograms keyed by the same
// categorical domain. Keys present in only one histogram contribute a
// zero on the other side.
func JSDCounts[K comparable](p, q map[K]float64) float64 {
	keys := make(map[K]struct{}, len(p)+len(q))
	for k := range p {
		keys[k] = struct{}{}
	}
	for k := range q {
		keys[k] = struct{}{}
	}
	if len(keys) == 0 {
		return 0
	}
	pv := make([]float64, 0, len(keys))
	qv := make([]float64, 0, len(keys))
	for k := range keys {
		pv = append(pv, p[k])
		qv = append(qv, q[k])
	}
	d, _ := JSD(pv, qv)
	return d
}

// EMDSamples computes the 1-D Earth Mover's Distance between two
// empirical samples, i.e. the area between their empirical CDFs.
// The inputs are not modified.
func EMDSamples(xs, ys []float64) (float64, error) {
	if len(xs) == 0 || len(ys) == 0 {
		return 0, ErrEmpty
	}
	a := append([]float64(nil), xs...)
	b := append([]float64(nil), ys...)
	sort.Float64s(a)
	sort.Float64s(b)
	// Merge the support points and integrate |Fa - Fb|.
	var emd float64
	i, j := 0, 0
	na, nb := float64(len(a)), float64(len(b))
	var prev float64
	first := true
	for i < len(a) || j < len(b) {
		var cur float64
		switch {
		case i >= len(a):
			cur = b[j]
		case j >= len(b):
			cur = a[i]
		case a[i] <= b[j]:
			cur = a[i]
		default:
			cur = b[j]
		}
		if !first {
			fa := float64(i) / na
			fb := float64(j) / nb
			emd += math.Abs(fa-fb) * (cur - prev)
		}
		for i < len(a) && a[i] == cur {
			i++
		}
		for j < len(b) && b[j] == cur {
			j++
		}
		prev = cur
		first = false
	}
	return emd, nil
}

// NormalizeRange linearly maps xs into [lo, hi] (the paper normalizes
// EMDs into [0.1, 0.9] for figure readability). If all values are equal
// the midpoint is returned for every entry. A new slice is returned.
func NormalizeRange(xs []float64, lo, hi float64) []float64 {
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	mn, mx := Min(xs), Max(xs)
	if mx == mn {
		mid := (lo + hi) / 2
		for i := range out {
			out[i] = mid
		}
		return out
	}
	for i, x := range xs {
		out[i] = lo + (x-mn)/(mx-mn)*(hi-lo)
	}
	return out
}

// Ranks assigns fractional ranks (average rank for ties, 1-based) to xs.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := (float64(i+1) + float64(j+1)) / 2
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// Pearson computes the Pearson correlation coefficient between xs and
// ys. It returns 0 when either input has zero variance.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrLengthMismatch
	}
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Spearman computes Spearman's rank correlation coefficient between xs
// and ys using fractional ranks (so ties are handled).
func Spearman(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrLengthMismatch
	}
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	return Pearson(Ranks(xs), Ranks(ys))
}

// TotalVariation computes half the L1 distance between two normalized
// distributions.
func TotalVariation(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, ErrLengthMismatch
	}
	if len(p) == 0 {
		return 0, ErrEmpty
	}
	pn := Normalize(append([]float64(nil), p...))
	qn := Normalize(append([]float64(nil), q...))
	var s float64
	for i := range pn {
		s += math.Abs(pn[i] - qn[i])
	}
	return s / 2, nil
}

// TVDCounts computes the total variation distance between two count
// histograms keyed by the same categorical domain — the per-attribute
// marginal fidelity score used by the evaluation service. Keys present
// in only one histogram contribute a zero on the other side, so a
// category the synthesizer invented (or dropped) counts fully against
// the score. Both histograms are normalized internally; the result
// lies in [0, 1], 0 meaning identical marginals.
func TVDCounts[K comparable](p, q map[K]float64) float64 {
	keys := make(map[K]struct{}, len(p)+len(q))
	for k := range p {
		keys[k] = struct{}{}
	}
	for k := range q {
		keys[k] = struct{}{}
	}
	if len(keys) == 0 {
		return 0
	}
	// Sum in a deterministic order: float addition is not associative,
	// and map iteration order would wobble the last ULP between runs —
	// visible when the result lands in a bit-compared artifact.
	type pair struct{ p, q float64 }
	pairs := make([]pair, 0, len(keys))
	for k := range keys {
		pairs = append(pairs, pair{p[k], q[k]})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].p != pairs[j].p {
			return pairs[i].p < pairs[j].p
		}
		return pairs[i].q < pairs[j].q
	})
	pv := make([]float64, len(pairs))
	qv := make([]float64, len(pairs))
	for i, pr := range pairs {
		pv[i] = pr.p
		qv[i] = pr.q
	}
	d, _ := TotalVariation(pv, qv)
	return d
}

// EntropyCounts computes the Shannon entropy (bits) of the empirical
// distribution described by a count histogram. Non-positive counts are
// ignored; an empty histogram has zero entropy.
func EntropyCounts[K comparable](counts map[K]float64) float64 {
	var total float64
	for _, c := range counts {
		if c > 0 {
			total += c
		}
	}
	if total <= 0 {
		return 0
	}
	var h float64
	for _, c := range counts {
		if c > 0 {
			p := c / total
			h -= p * math.Log2(p)
		}
	}
	if h < 0 { // floating point guard
		h = 0
	}
	return h
}

// CountsOf tallies the frequency of each value in xs.
func CountsOf[K comparable](xs []K) map[K]float64 {
	m := make(map[K]float64)
	for _, x := range xs {
		m[x]++
	}
	return m
}
