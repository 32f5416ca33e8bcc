package kernels

import "math"

// GapSweep carries a windowed all-miss fast path; GapMerge and
// PoolRepScan run the reference loops. Every function here must stay
// byte-identical to its ref.go twin; the in-package tests and
// FuzzKernelSweepScan compare them element for element.

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
