// Package core implements the NetDPSyn pipeline — the paper's primary
// contribution: DenseMarg marginal selection (§3.3), marginal
// combination, noisy publication and post-processing, and GUM/GUMMI
// record synthesis (§3.4), orchestrated end-to-end by Pipeline.
package core

import (
	"math"
	"sort"

	"github.com/netdpsyn/netdpsyn/internal/marginal"
)

// SelectionResult is the outcome of DenseMarg selection.
type SelectionResult struct {
	// Selected lists the chosen attribute sets (initially pairs, then
	// possibly merged into multi-way sets by Combine).
	Selected [][]int
	// TotalError is the objective value at termination: the sum of
	// noise error over selected marginals and dependency error over
	// the rest.
	TotalError float64
	// NoiseError and DependencyError break TotalError down.
	NoiseError      float64
	DependencyError float64
}

// cellsOf returns the cell count of a marginal over the given
// attribute set.
func cellsOf(domains []int, attrs []int) float64 {
	c := 1.0
	for _, a := range attrs {
		c *= float64(domains[a])
	}
	return c
}

// noiseErrors computes, for a candidate selected set, the expected L1
// noise error of each selected marginal under PrivSyn's optimal
// unequal budget allocation ρ_i ∝ c_i^{2/3} over the publication
// budget rhoPublish. pow23 carries each marginal's precomputed
// c^{2/3}: the greedy loop in SelectMarginalsBounded evaluates O(n·k)
// candidate sets of up to k marginals each, and recomputing the
// fractional powers inside made math.Pow the single hottest call of a
// follow-mode synthesis step.
func noiseErrors(cells, pow23 []float64, rhoPublish float64) []float64 {
	var denom float64
	for _, p := range pow23 {
		denom += p
	}
	out := make([]float64, len(cells))
	if denom <= 0 || rhoPublish <= 0 {
		for i := range out {
			out[i] = math.Inf(1)
		}
		return out
	}
	for i, c := range cells {
		rho := rhoPublish * pow23[i] / denom
		sigma := 1 / math.Sqrt(2*rho)
		out[i] = marginal.ExpectedL1NoiseError(int(c), sigma)
	}
	return out
}

// SelectMarginalsBounded runs DenseMarg's greedy optimization (Eq. 2
// of the paper): minimize Σ_i [ψ_i·x_i + φ_i·(1−x_i)] where φ is the
// (noisy) InDif dependency error of omitting pair i and ψ the noise
// error of publishing it under the shared publication budget. Each
// step adds the pair whose inclusion most reduces the total error (the
// highest net benefit φ − Δψ, which is not the highest φ: a strongly
// dependent pair over huge domains can cost more noise than its
// dependency is worth); selection stops when no remaining pair
// improves the objective.
//
// Two caps bound the selection: candidate pairs whose 2-way marginal
// exceeds maxCells cells (0 = unlimited) are never selected, and at
// most maxSelected pairs are chosen (0 = unlimited). A marginal with
// far more cells than records is nearly uninformative for record
// synthesis yet scores a large, granularity-inflated InDif, and GUM
// cannot reconcile an unbounded number of overlapping constraints at a
// fixed record count; both caps keep selection within what synthesis
// can use. The pipeline passes a small multiple of the record count
// and of the attribute count respectively.
func SelectMarginalsBounded(ps *marginal.PairScores, domains []int, rhoPublish, maxCells float64, maxSelected int) *SelectionResult {
	n := len(ps.Pairs)
	var totalDep float64
	for _, s := range ps.Scores {
		totalDep += s
	}
	allCells := make([]float64, n)
	allPow23 := make([]float64, n)
	eligible := make([]bool, n)
	for i, p := range ps.Pairs {
		allCells[i] = cellsOf(domains, p[:])
		allPow23[i] = math.Pow(allCells[i], 2.0/3.0)
		eligible[i] = maxCells <= 0 || allCells[i] <= maxCells
	}

	cellsBuf := make([]float64, n)
	powBuf := make([]float64, n)
	totalErr := func(sel []int) (total, noise, dep float64) {
		cells := cellsBuf[:len(sel)]
		pow23 := powBuf[:len(sel)]
		dep = totalDep
		for i, idx := range sel {
			cells[i] = allCells[idx]
			pow23[i] = allPow23[idx]
			dep -= ps.Scores[idx]
		}
		for _, ne := range noiseErrors(cells, pow23, rhoPublish) {
			noise += ne
		}
		return noise + dep, noise, dep
	}

	selected := make([]int, 0, n)
	inSel := make([]bool, n)
	bestTotal, bestNoise, bestDep := totalErr(nil)
	for maxSelected <= 0 || len(selected) < maxSelected {
		bestIdx := -1
		var bestT, bestN, bestD float64
		for i := 0; i < n; i++ {
			if inSel[i] || !eligible[i] {
				continue
			}
			t, ne, de := totalErr(append(selected, i))
			if bestIdx < 0 || t < bestT {
				bestIdx, bestT, bestN, bestD = i, t, ne, de
			}
		}
		if bestIdx < 0 || bestT >= bestTotal {
			break
		}
		selected = append(selected, bestIdx)
		inSel[bestIdx] = true
		bestTotal, bestNoise, bestDep = bestT, bestN, bestD
	}
	sort.Ints(selected)

	res := &SelectionResult{
		TotalError:      bestTotal,
		NoiseError:      bestNoise,
		DependencyError: bestDep,
	}
	for _, idx := range selected {
		p := ps.Pairs[idx]
		res.Selected = append(res.Selected, []int{p[0], p[1]})
	}
	return res
}

// Combine merges overlapping selected marginals whose combined size
// is small (§3.3: "DenseMarg further merges the overlapping ones
// whose sizes are small"), producing multi-way marginals that capture
// higher-order correlations at no extra budget fragmentation. Sets
// are merged greedily, smallest combined cell count first, while the
// merged size stays within maxCells and the arity within maxAttrs.
func Combine(selected [][]int, domains []int, maxCells float64, maxAttrs int) [][]int {
	sets := make([][]int, len(selected))
	for i, s := range selected {
		sets[i] = append([]int(nil), s...)
		sort.Ints(sets[i])
	}
	for {
		bestI, bestJ := -1, -1
		bestCells := math.Inf(1)
		for i := 0; i < len(sets); i++ {
			for j := i + 1; j < len(sets); j++ {
				if !overlap(sets[i], sets[j]) {
					continue
				}
				u := union(sets[i], sets[j])
				if len(u) > maxAttrs {
					continue
				}
				c := cellsOf(domains, u)
				if c <= maxCells && c < bestCells {
					bestI, bestJ, bestCells = i, j, c
				}
			}
		}
		if bestI < 0 {
			return dedupe(sets)
		}
		u := union(sets[bestI], sets[bestJ])
		sets[bestI] = u
		sets = append(sets[:bestJ], sets[bestJ+1:]...)
	}
}

func overlap(a, b []int) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

func union(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case i >= len(a):
			out = append(out, b[j])
			j++
		case j >= len(b):
			out = append(out, a[i])
			i++
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	return out
}

// dedupe removes attribute sets fully contained in another set (a
// merged set supersedes its parts).
func dedupe(sets [][]int) [][]int {
	var out [][]int
	for i, s := range sets {
		sub := false
		for j, t := range sets {
			if i == j {
				continue
			}
			if len(s) < len(t) && subset(s, t) {
				sub = true
				break
			}
			if len(s) == len(t) && i > j && subset(s, t) {
				sub = true // exact duplicate, keep first
				break
			}
		}
		if !sub {
			out = append(out, s)
		}
	}
	return out
}

func subset(s, t []int) bool {
	j := 0
	for _, v := range s {
		for j < len(t) && t[j] < v {
			j++
		}
		if j >= len(t) || t[j] != v {
			return false
		}
	}
	return true
}
