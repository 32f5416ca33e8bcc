package kernels

import "math"

// This file holds the straight-line reference implementation of every
// kernel: the oracle the bodies in opt.go are held to. The
// equivalence tests and FuzzKernelSweepScan compare against these loops
// in-process. Any change here changes the contract — keep the loops
// boring.

// refGapSweep walks every cell in ascending order, classifying each
// against its target count: a live cell (live[c] > 0 rows) contributes
// its signed gap, a target cell with no rows contributes its full
// target as an under gap, and cells that are neither are skipped.
// tcells must be the ascending list of cells with target > dust. Gaps
// within ±dust of zero are excluded from over/under (they still count
// toward l1), matching GUM's dust rule. The l1 accumulation order is
// ascending-cell, identical to refGapMerge over the same cells.
func refGapSweep(live []int32, counts []float64, tcells []int, dust float64, over, under []CellGap) ([]CellGap, []CellGap, float64) {
	var l1 float64
	ki, kn := 0, len(tcells)
	for c := range counts {
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

// refGapMerge is the sort-based twin of refGapSweep for cell spaces
// too large to sweep linearly: nonzero must be the ascending list of
// live cells; it is merged against tcells. Byte-identical to
// refGapSweep over the same counts.
func refGapMerge(nonzero []int, live []int32, counts []float64, tcells []int, dust float64, over, under []CellGap) ([]CellGap, []CellGap, float64) {
	var l1 float64
	ki, kn := 0, len(tcells)
	for _, c := range nonzero {
		for ki < kn && tcells[ki] < c {
			tc := tcells[ki]
			gap := counts[tc]
			l1 += gap
			under = append(under, CellGap{tc, gap})
			ki++
		}
		if ki < kn && tcells[ki] == c {
			ki++
		}
		d := float64(live[c]) - counts[c]
		l1 += math.Abs(d)
		if d > dust {
			over = append(over, CellGap{c, d})
		} else if d < -dust {
			under = append(under, CellGap{c, -d})
		}
	}
	for ; ki < kn; ki++ {
		tc := tcells[ki]
		gap := counts[tc]
		l1 += gap
		under = append(under, CellGap{tc, gap})
	}
	return over, under, l1
}

// refPoolRepScan walks the rows in ascending order once, filling the
// donor pool and finding representatives together. A row whose cell
// is stamped quotaE joins the pool and uses up one unit of the cell's
// quota (every stamped quota starts ≥ 1); when the quota runs out the
// cell's stamp is cleared to 0, which callers never use as an epoch.
// A row whose cell is stamped repE becomes that cell's representative,
// and its stamp is cleared the same way. Over and under cells are
// disjoint, so no cell carries both stamps. want is the
// summed quota and need the number of under cells that hold a row:
// once both are used up no later row can qualify, so stopping early
// is invisible in the output. Row order is part of the determinism
// contract — the pool feeds a seeded shuffle downstream.
func refPoolRepScan(cellOf []int32, quota, rep []int32, stamp []uint32, quotaE, repE uint32, pool []int, want, need int) []int {
	for r := 0; r < len(cellOf) && want+need > 0; r++ {
		c := cellOf[r]
		switch stamp[c] {
		case quotaE:
			pool = append(pool, r)
			want--
			if quota[c]--; quota[c] == 0 {
				stamp[c] = 0
			}
		case repE:
			rep[c] = int32(r)
			stamp[c] = 0
			need--
		}
	}
	return pool
}
