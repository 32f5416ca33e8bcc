package kernels

import "math"

// This file holds the straight-line reference implementation of every
// kernel: the oracle the unrolled bodies in opt.go are held to. The
// equivalence tests and FuzzKernelTally compare against these loops
// in-process. Any change here changes the contract — keep the loops
// boring.

// refCells2 computes out[r] = a[r]*s0 + b[r] for every row.
func refCells2(out []int, a, b []int32, s0 int) {
	for r := range out {
		out[r] = int(a[r])*s0 + int(b[r])
	}
}

// refCells3 computes out[r] = a[r]*s0 + b[r]*s1 + c[r].
func refCells3(out []int, a, b, c []int32, s0, s1 int) {
	for r := range out {
		out[r] = int(a[r])*s0 + int(b[r])*s1 + int(c[r])
	}
}

// refAccumStride adds col[r]*s into out[r]; with init it overwrites
// instead (the first column of a generic stride accumulation).
func refAccumStride(out []int, col []int32, s int, init bool) {
	if init {
		for r := range out {
			out[r] = int(col[r]) * s
		}
		return
	}
	for r := range out {
		out[r] += int(col[r]) * s
	}
}

// refTally counts rows per cell into the epoch-stamped arena:
// a cell seen for the first time this epoch is stamped, set to 1 and
// appended to touched (in first-seen row order); later hits
// increment. Returns the grown touched slice.
func refTally(cells []int, vals []float64, stamp []uint32, epoch uint32, touched []int) []int {
	for _, c := range cells {
		if stamp[c] != epoch {
			stamp[c] = epoch
			vals[c] = 1
			touched = append(touched, c)
		} else {
			vals[c]++
		}
	}
	return touched
}

// refCells2Tally fuses refCells2 with refTally, recording each row's
// cell in cellOf on the way through.
func refCells2Tally(cellOf []int, a, b []int32, s0 int, vals []float64, stamp []uint32, epoch uint32, touched []int) []int {
	for r := range cellOf {
		c := int(a[r])*s0 + int(b[r])
		cellOf[r] = c
		if stamp[c] != epoch {
			stamp[c] = epoch
			vals[c] = 1
			touched = append(touched, c)
		} else {
			vals[c]++
		}
	}
	return touched
}

// refCells3Tally is the three-attribute analogue of refCells2Tally.
func refCells3Tally(cellOf []int, a, b, c []int32, s0, s1 int, vals []float64, stamp []uint32, epoch uint32, touched []int) []int {
	for r := range cellOf {
		cc := int(a[r])*s0 + int(b[r])*s1 + int(c[r])
		cellOf[r] = cc
		if stamp[cc] != epoch {
			stamp[cc] = epoch
			vals[cc] = 1
			touched = append(touched, cc)
		} else {
			vals[cc]++
		}
	}
	return touched
}

// refGapSweep walks every cell of the dense arena in ascending order,
// classifying each against its target count: cells counted this
// epoch (stamp == epoch) contribute their signed gap, target cells
// never counted contribute their full target as an under gap, and
// cells that are neither are skipped. tcells must be the ascending
// list of cells with target > dust. Gaps within ±dust of zero are
// excluded from over/under (they still count toward l1), matching
// GUM's dust rule. The l1 accumulation order is ascending-cell,
// identical to refGapMerge over the same union.
func refGapSweep(vals []float64, stamp []uint32, epoch uint32, counts []float64, tcells []int, dust float64, over, under []CellGap) ([]CellGap, []CellGap, float64) {
	var l1 float64
	ki, kn := 0, len(tcells)
	for c := range counts {
		live := stamp[c] == epoch
		if ki < kn && tcells[ki] == c {
			ki++
			if !live {
				gap := counts[c]
				l1 += gap
				under = append(under, CellGap{c, gap})
				continue
			}
		} else if !live {
			continue
		}
		d := vals[c] - counts[c]
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
// too large to sweep linearly: touched must be the ascending sorted
// list of cells counted this epoch; it is merged against tcells.
// Byte-identical to refGapSweep on the same arena.
func refGapMerge(touched []int, vals []float64, counts []float64, tcells []int, dust float64, over, under []CellGap) ([]CellGap, []CellGap, float64) {
	var l1 float64
	ki, kn := 0, len(tcells)
	for _, c := range touched {
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
		d := vals[c] - counts[c]
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

// refPoolScan collects donor rows in row order: a row whose cell
// still has quota (stamp == epoch, vals >= 1) joins the pool and
// decrements the quota. want is the summed quota — once that many
// rows are pooled every quota is zero and no later row can qualify,
// so stopping early is invisible in the output. Row order is part of
// the determinism contract — the pool feeds a seeded shuffle
// downstream.
func refPoolScan(cellOf []int, vals []float64, stamp []uint32, epoch uint32, pool []int, want int) []int {
	for r := 0; r < len(cellOf) && want > 0; r++ {
		if c := cellOf[r]; stamp[c] == epoch && vals[c] >= 1 {
			vals[c]--
			pool = append(pool, r)
			want--
		}
	}
	return pool
}

// refRepScan finds the first representative row for each stamped
// cell (rep preset to -1), stopping early once need cells are
// resolved.
func refRepScan(cellOf []int, rep []int32, stamp []uint32, epoch uint32, need int) {
	for r := 0; r < len(cellOf) && need > 0; r++ {
		if c := cellOf[r]; stamp[c] == epoch && rep[c] < 0 {
			rep[c] = int32(r)
			need--
		}
	}
}
