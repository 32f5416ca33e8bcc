package kernels

import (
	"bytes"
	"testing"
)

// FuzzKernelTally feeds arbitrary encoded rows through the 8-lane
// tally kernels and the reference loops and requires byte-identical
// results: same cellOf, same touched order, same counts, same stamps.
// The CI fuzz-smoke job runs this for a bounded time.
func FuzzKernelTally(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(5), uint8(3), uint8(2))
	f.Add([]byte{}, uint8(1), uint8(1), uint8(1))
	f.Add(bytes.Repeat([]byte{0xff, 0, 7}, 23), uint8(16), uint8(9), uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, d0, d1, d2 uint8) {
		// Decode the fuzz input into three attribute columns over
		// small domains; every byte lands in range, so all inputs are
		// valid encoded rows.
		doms := [3]int{int(d0%32) + 1, int(d1%32) + 1, int(d2%32) + 1}
		n := len(raw) / 3
		cols := make([][]int32, 3)
		for i := range cols {
			cols[i] = make([]int32, n)
			for r := 0; r < n; r++ {
				cols[i][r] = int32(int(raw[r*3+i]) % doms[i])
			}
		}
		cells := doms[0] * doms[1] * doms[2]
		s1 := doms[2]
		s0 := doms[1] * s1
		const epoch = 3

		check := func(tag string, cellOf, refCellOf, touched, refTouched []int, vals, refVals []float64, stamp, refStamp []uint32) {
			t.Helper()
			if !intsEqual(cellOf, refCellOf) {
				t.Fatalf("%s: cellOf diverges", tag)
			}
			if !intsEqual(touched, refTouched) {
				t.Fatalf("%s: touched diverges", tag)
			}
			for c := 0; c < cells; c++ {
				if stamp[c] != refStamp[c] {
					t.Fatalf("%s: stamp[%d] = %d, reference %d", tag, c, stamp[c], refStamp[c])
				}
				if stamp[c] == epoch && vals[c] != refVals[c] {
					t.Fatalf("%s: vals[%d] = %v, reference %v", tag, c, vals[c], refVals[c])
				}
			}
		}

		// 3-way fused kernel.
		cellOf := make([]int, n)
		refCellOf := make([]int, n)
		vals := make([]float64, cells)
		refVals := make([]float64, cells)
		stamp := make([]uint32, cells)
		refStamp := make([]uint32, cells)
		touched := Cells3Tally(cellOf, cols[0], cols[1], cols[2], s0, s1, vals, stamp, epoch, nil)
		refTouched := refCells3Tally(refCellOf, cols[0], cols[1], cols[2], s0, s1, refVals, refStamp, epoch, nil)
		check("Cells3Tally", cellOf, refCellOf, touched, refTouched, vals, refVals, stamp, refStamp)

		// 2-way fused kernel over the first two columns.
		cells2 := doms[0] * doms[1]
		vals2 := make([]float64, cells2)
		refVals2 := make([]float64, cells2)
		stamp2 := make([]uint32, cells2)
		refStamp2 := make([]uint32, cells2)
		touched = Cells2Tally(cellOf, cols[0], cols[1], doms[1], vals2, stamp2, epoch, nil)
		refTouched = refCells2Tally(refCellOf, cols[0], cols[1], doms[1], refVals2, refStamp2, epoch, nil)
		if !intsEqual(cellOf, refCellOf) || !intsEqual(touched, refTouched) {
			t.Fatal("Cells2Tally diverges")
		}

		// Plain tally over the precomputed 3-way cells.
		clear(vals)
		clear(stamp)
		clear(refVals)
		clear(refStamp)
		touched = Tally(refCellOf, vals, stamp, epoch, nil)
		refTouched = refTally(refCellOf, refVals, refStamp, epoch, nil)
		check("Tally", refCellOf, refCellOf, touched, refTouched, vals, refVals, stamp, refStamp)
	})
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
