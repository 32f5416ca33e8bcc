package kernels

import "math"

// 8-lane unrolled loops with re-sliced operands, so the compiler can
// prove bounds once per lane group, and a windowed all-miss fast path
// in GapSweep; GapMerge and PoolRepScan run the reference loops. Every
// function here must stay byte-identical to its ref.go twin; the
// in-package tests and FuzzKernelSweepScan compare them element for
// element.

// Cells2 computes out[r] = a[r]*s0 + b[r] for every row.
func Cells2(out []int, a, b []int32, s0 int) {
	n := len(out)
	if len(a) < n || len(b) < n {
		panic("kernels: column shorter than out")
	}
	r := 0
	for ; r+8 <= n; r += 8 {
		o := out[r : r+8 : r+8]
		av := a[r : r+8 : r+8]
		bv := b[r : r+8 : r+8]
		o[0] = int(av[0])*s0 + int(bv[0])
		o[1] = int(av[1])*s0 + int(bv[1])
		o[2] = int(av[2])*s0 + int(bv[2])
		o[3] = int(av[3])*s0 + int(bv[3])
		o[4] = int(av[4])*s0 + int(bv[4])
		o[5] = int(av[5])*s0 + int(bv[5])
		o[6] = int(av[6])*s0 + int(bv[6])
		o[7] = int(av[7])*s0 + int(bv[7])
	}
	for ; r < n; r++ {
		out[r] = int(a[r])*s0 + int(b[r])
	}
}

// Cells3 computes out[r] = a[r]*s0 + b[r]*s1 + c[r] for every row.
func Cells3(out []int, a, b, c []int32, s0, s1 int) {
	n := len(out)
	if len(a) < n || len(b) < n || len(c) < n {
		panic("kernels: column shorter than out")
	}
	r := 0
	for ; r+8 <= n; r += 8 {
		o := out[r : r+8 : r+8]
		av := a[r : r+8 : r+8]
		bv := b[r : r+8 : r+8]
		cv := c[r : r+8 : r+8]
		o[0] = int(av[0])*s0 + int(bv[0])*s1 + int(cv[0])
		o[1] = int(av[1])*s0 + int(bv[1])*s1 + int(cv[1])
		o[2] = int(av[2])*s0 + int(bv[2])*s1 + int(cv[2])
		o[3] = int(av[3])*s0 + int(bv[3])*s1 + int(cv[3])
		o[4] = int(av[4])*s0 + int(bv[4])*s1 + int(cv[4])
		o[5] = int(av[5])*s0 + int(bv[5])*s1 + int(cv[5])
		o[6] = int(av[6])*s0 + int(bv[6])*s1 + int(cv[6])
		o[7] = int(av[7])*s0 + int(bv[7])*s1 + int(cv[7])
	}
	for ; r < n; r++ {
		out[r] = int(a[r])*s0 + int(b[r])*s1 + int(c[r])
	}
}

// AccumStride adds col[r]*s into out[r] (or initializes out when
// init is set) — one column of a generic marginal cell computation.
func AccumStride(out []int, col []int32, s int, init bool) {
	n := len(out)
	if len(col) < n {
		panic("kernels: column shorter than out")
	}
	r := 0
	if init {
		for ; r+8 <= n; r += 8 {
			o := out[r : r+8 : r+8]
			cv := col[r : r+8 : r+8]
			o[0] = int(cv[0]) * s
			o[1] = int(cv[1]) * s
			o[2] = int(cv[2]) * s
			o[3] = int(cv[3]) * s
			o[4] = int(cv[4]) * s
			o[5] = int(cv[5]) * s
			o[6] = int(cv[6]) * s
			o[7] = int(cv[7]) * s
		}
		for ; r < n; r++ {
			out[r] = int(col[r]) * s
		}
		return
	}
	for ; r+8 <= n; r += 8 {
		o := out[r : r+8 : r+8]
		cv := col[r : r+8 : r+8]
		o[0] += int(cv[0]) * s
		o[1] += int(cv[1]) * s
		o[2] += int(cv[2]) * s
		o[3] += int(cv[3]) * s
		o[4] += int(cv[4]) * s
		o[5] += int(cv[5]) * s
		o[6] += int(cv[6]) * s
		o[7] += int(cv[7]) * s
	}
	for ; r < n; r++ {
		out[r] += int(col[r]) * s
	}
}

// GapSweep classifies every cell against its target in ascending-cell
// order (see refGapSweep for the full semantics). The optimized body
// reads the live counts in 8-cell windows: a window with no live cell
// only drains target cells, so the per-cell classification runs only
// where rows actually are. Term order is ascending-cell either way —
// byte-identical to the reference.
func GapSweep(live []int32, counts []float64, tcells []int, dust float64, over, under []CellGap) ([]CellGap, []CellGap, float64) {
	cells := len(counts)
	if len(live) < cells {
		panic("kernels: live counts shorter than targets")
	}
	live = live[:cells:cells]
	var l1 float64
	ki, kn := 0, len(tcells)
	c := 0
	for ; c+8 <= cells; c += 8 {
		w := live[c : c+8 : c+8]
		if w[0]|w[1]|w[2]|w[3]|w[4]|w[5]|w[6]|w[7] == 0 {
			// No live cell in the window: only target cells
			// contribute, each as a full-gap under. tcells is
			// ascending, so this preserves ascending-cell order.
			for ki < kn && tcells[ki] < c+8 {
				tc := tcells[ki]
				gap := counts[tc]
				l1 += gap
				under = append(under, CellGap{tc, gap})
				ki++
			}
			continue
		}
		for i := c; i < c+8; i++ {
			isLive := w[i-c] > 0
			if ki < kn && tcells[ki] == i {
				ki++
				if !isLive {
					gap := counts[i]
					l1 += gap
					under = append(under, CellGap{i, gap})
					continue
				}
			} else if !isLive {
				continue
			}
			d := float64(w[i-c]) - counts[i]
			l1 += math.Abs(d)
			if d > dust {
				over = append(over, CellGap{i, d})
			} else if d < -dust {
				under = append(under, CellGap{i, -d})
			}
		}
	}
	for ; c < cells; c++ {
		isLive := live[c] > 0
		if ki < kn && tcells[ki] == c {
			ki++
			if !isLive {
				gap := counts[c]
				l1 += gap
				under = append(under, CellGap{c, gap})
				continue
			}
		} else if !isLive {
			continue
		}
		d := float64(live[c]) - counts[c]
		l1 += math.Abs(d)
		if d > dust {
			over = append(over, CellGap{c, d})
		} else if d < -dust {
			under = append(under, CellGap{c, -d})
		}
	}
	return over, under, l1
}

// GapMerge is the sorted-nonzero twin of GapSweep for large cell
// spaces. The merge is pointer-chasing either way; the reference loop
// is already optimal.
func GapMerge(nonzero []int, live []int32, counts []float64, tcells []int, dust float64, over, under []CellGap) ([]CellGap, []CellGap, float64) {
	return refGapMerge(nonzero, live, counts, tcells, dust, over, under)
}

// PoolRepScan fills the donor pool and finds under cells'
// representatives in one ascending row pass, stopping once want pool
// rows and need representatives are found (see refPoolRepScan for the
// full semantics). The reference loop is the implementation: an 8-row
// body that skips groups whose stamps all miss was 30% faster on
// full-length scans in isolation, but no faster on the gum stage of
// release-large-shaped input (4 alternating in-process pairs), so it
// was not kept.
func PoolRepScan(cellOf []int32, quota, rep []int32, stamp []uint32, quotaE, repE uint32, pool []int, want, need int) []int {
	return refPoolRepScan(cellOf, quota, rep, stamp, quotaE, repE, pool, want, need)
}
