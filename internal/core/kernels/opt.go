package kernels

import "math"

// 8-lane unrolled loops with re-sliced operands, so the compiler can
// prove bounds once per lane group, and a windowed all-miss fast path
// in GapSweep. Cell-indexed accesses (vals[c], stamp[c]) keep their
// bounds checks — cells are data-dependent — but the row-major
// streams dominate and those unroll cleanly. Every function here must stay byte-identical to
// its ref.go twin; the in-package tests and FuzzKernelTally compare
// them element for element.

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

// tallyOne folds one cell into the stamped arena, appending
// first-seen cells to touched.
func tallyOne(c int, vals []float64, stamp []uint32, epoch uint32, touched []int) []int {
	if stamp[c] != epoch {
		stamp[c] = epoch
		vals[c] = 1
		touched = append(touched, c)
	} else {
		vals[c]++
	}
	return touched
}

// Tally counts rows per cell into the epoch-stamped dense arena and
// appends first-seen cells to touched. See refTally for semantics.
func Tally(cells []int, vals []float64, stamp []uint32, epoch uint32, touched []int) []int {
	n := len(cells)
	r := 0
	for ; r+8 <= n; r += 8 {
		cv := cells[r : r+8 : r+8]
		touched = tallyOne(cv[0], vals, stamp, epoch, touched)
		touched = tallyOne(cv[1], vals, stamp, epoch, touched)
		touched = tallyOne(cv[2], vals, stamp, epoch, touched)
		touched = tallyOne(cv[3], vals, stamp, epoch, touched)
		touched = tallyOne(cv[4], vals, stamp, epoch, touched)
		touched = tallyOne(cv[5], vals, stamp, epoch, touched)
		touched = tallyOne(cv[6], vals, stamp, epoch, touched)
		touched = tallyOne(cv[7], vals, stamp, epoch, touched)
	}
	for ; r < n; r++ {
		touched = tallyOne(cells[r], vals, stamp, epoch, touched)
	}
	return touched
}

// Cells2Tally fuses the two-attribute cell computation with Tally,
// recording per-row cells in cellOf.
func Cells2Tally(cellOf []int, a, b []int32, s0 int, vals []float64, stamp []uint32, epoch uint32, touched []int) []int {
	n := len(cellOf)
	if len(a) < n || len(b) < n {
		panic("kernels: column shorter than cellOf")
	}
	r := 0
	for ; r+8 <= n; r += 8 {
		o := cellOf[r : r+8 : r+8]
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
		touched = tallyOne(o[0], vals, stamp, epoch, touched)
		touched = tallyOne(o[1], vals, stamp, epoch, touched)
		touched = tallyOne(o[2], vals, stamp, epoch, touched)
		touched = tallyOne(o[3], vals, stamp, epoch, touched)
		touched = tallyOne(o[4], vals, stamp, epoch, touched)
		touched = tallyOne(o[5], vals, stamp, epoch, touched)
		touched = tallyOne(o[6], vals, stamp, epoch, touched)
		touched = tallyOne(o[7], vals, stamp, epoch, touched)
	}
	for ; r < n; r++ {
		c := int(a[r])*s0 + int(b[r])
		cellOf[r] = c
		touched = tallyOne(c, vals, stamp, epoch, touched)
	}
	return touched
}

// Cells3Tally fuses the three-attribute cell computation with Tally.
func Cells3Tally(cellOf []int, a, b, c []int32, s0, s1 int, vals []float64, stamp []uint32, epoch uint32, touched []int) []int {
	n := len(cellOf)
	if len(a) < n || len(b) < n || len(c) < n {
		panic("kernels: column shorter than cellOf")
	}
	r := 0
	for ; r+8 <= n; r += 8 {
		o := cellOf[r : r+8 : r+8]
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
		touched = tallyOne(o[0], vals, stamp, epoch, touched)
		touched = tallyOne(o[1], vals, stamp, epoch, touched)
		touched = tallyOne(o[2], vals, stamp, epoch, touched)
		touched = tallyOne(o[3], vals, stamp, epoch, touched)
		touched = tallyOne(o[4], vals, stamp, epoch, touched)
		touched = tallyOne(o[5], vals, stamp, epoch, touched)
		touched = tallyOne(o[6], vals, stamp, epoch, touched)
		touched = tallyOne(o[7], vals, stamp, epoch, touched)
	}
	for ; r < n; r++ {
		cc := int(a[r])*s0 + int(b[r])*s1 + int(c[r])
		cellOf[r] = cc
		touched = tallyOne(cc, vals, stamp, epoch, touched)
	}
	return touched
}

// GapSweep classifies every cell of the dense arena against its
// target in ascending-cell order (see refGapSweep for the full
// semantics). The optimized body scans the stamp array in 8-cell
// windows: a window with no live cell only drains target cells, so
// the per-cell classification runs only where counts actually
// landed. Term order is ascending-cell either way — byte-identical
// to the reference.
func GapSweep(vals []float64, stamp []uint32, epoch uint32, counts []float64, tcells []int, dust float64, over, under []CellGap) ([]CellGap, []CellGap, float64) {
	cells := len(counts)
	if len(vals) < cells || len(stamp) < cells {
		panic("kernels: arena shorter than counts")
	}
	vals = vals[:cells:cells]
	stamp = stamp[:cells:cells]
	var l1 float64
	ki, kn := 0, len(tcells)
	c := 0
	for ; c+8 <= cells; c += 8 {
		s := stamp[c : c+8 : c+8]
		if s[0] != epoch && s[1] != epoch && s[2] != epoch && s[3] != epoch &&
			s[4] != epoch && s[5] != epoch && s[6] != epoch && s[7] != epoch {
			// No counted cell in the window: only target cells
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
			live := s[i-c] == epoch
			if ki < kn && tcells[ki] == i {
				ki++
				if !live {
					gap := counts[i]
					l1 += gap
					under = append(under, CellGap{i, gap})
					continue
				}
			} else if !live {
				continue
			}
			d := vals[i] - counts[i]
			l1 += math.Abs(d)
			if d > dust {
				over = append(over, CellGap{i, d})
			} else if d < -dust {
				under = append(under, CellGap{i, -d})
			}
		}
	}
	for ; c < cells; c++ {
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

// GapMerge is the sorted-touched twin of GapSweep for large cell
// spaces. The merge is pointer-chasing either way; the reference
// loop is already optimal.
func GapMerge(touched []int, vals []float64, counts []float64, tcells []int, dust float64, over, under []CellGap) ([]CellGap, []CellGap, float64) {
	return refGapMerge(touched, vals, counts, tcells, dust, over, under)
}

// PoolScan collects donor rows in row order, consuming per-cell
// quotas from the stamped arena; want (the summed quota) bounds the
// scan — once every quota unit is consumed no later row can qualify.
func PoolScan(cellOf []int, vals []float64, stamp []uint32, epoch uint32, pool []int, want int) []int {
	n := len(cellOf)
	r := 0
	for ; r+8 <= n && want > 0; r += 8 {
		cv := cellOf[r : r+8 : r+8]
		for i := 0; i < 8; i++ {
			c := cv[i]
			if stamp[c] == epoch && vals[c] >= 1 {
				vals[c]--
				pool = append(pool, r+i)
				want--
			}
		}
	}
	for ; r < n && want > 0; r++ {
		c := cellOf[r]
		if stamp[c] == epoch && vals[c] >= 1 {
			vals[c]--
			pool = append(pool, r)
			want--
		}
	}
	return pool
}

// RepScan records the first representative row of each stamped cell,
// stopping once need cells are resolved.
func RepScan(cellOf []int, rep []int32, stamp []uint32, epoch uint32, need int) {
	n := len(cellOf)
	r := 0
	for ; r+8 <= n && need > 0; r += 8 {
		cv := cellOf[r : r+8 : r+8]
		for i := 0; i < 8; i++ {
			if c := cv[i]; stamp[c] == epoch && rep[c] < 0 {
				rep[c] = int32(r + i)
				if need--; need == 0 {
					return
				}
			}
		}
	}
	for ; r < n && need > 0; r++ {
		if c := cellOf[r]; stamp[c] == epoch && rep[c] < 0 {
			rep[c] = int32(r)
			need--
		}
	}
}
