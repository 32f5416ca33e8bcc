package kernels

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzKernelSweepScan feeds arbitrary rows through the kernels GUM's
// planning pass runs and requires byte-identical results: the
// live-count gap sweep against its reference and against the merge
// route, then the one-pass donor/representative scan (with quotas and
// representatives stamped from that classification) against its
// reference. The CI fuzz-smoke job runs this for a bounded time.
func FuzzKernelSweepScan(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(5), uint8(3))
	f.Add([]byte{}, uint8(1), uint8(1))
	f.Add(bytes.Repeat([]byte{0xff, 0, 7}, 23), uint8(16), uint8(9))
	f.Fuzz(func(t *testing.T, raw []byte, d0, d1 uint8) {
		// Every byte is a row whose cell lands in range, so all inputs
		// are valid tallies; the targets come from the bytes too.
		cells := int(d0%64) + 1
		cellOf := make([]int32, len(raw))
		live := make([]int32, cells)
		for r, b := range raw {
			c := int32(int(b) % cells)
			cellOf[r] = c
			live[c]++
		}
		counts := make([]float64, cells)
		var nonzero, tcells []int
		for c := range counts {
			if len(raw) > 0 {
				counts[c] = float64(raw[(c*int(d1|1))%len(raw)]%16) / 3
			}
			if counts[c] > 0.5 {
				tcells = append(tcells, c)
			}
			if live[c] > 0 {
				nonzero = append(nonzero, c)
			}
		}
		over, under, l1 := GapSweep(live, counts, tcells, 0.5, nil, nil)
		rO, rU, rL1 := refGapSweep(live, counts, tcells, 0.5, nil, nil)
		if l1 != rL1 || !slices.Equal(over, rO) || !slices.Equal(under, rU) {
			t.Fatal("GapSweep diverges from reference")
		}
		mO, mU, mL1 := GapMerge(nonzero, live, counts, tcells, 0.5, nil, nil)
		if mL1 != l1 || !slices.Equal(mO, over) || !slices.Equal(mU, under) {
			t.Fatal("GapMerge diverges from GapSweep")
		}

		const quotaE, repE = 7, 8
		quota := make([]int32, cells)
		rep := make([]int32, cells)
		stamp := make([]uint32, cells)
		want, need := 0, 0
		for i, o := range over {
			if q := int32(1 + (i+int(d1))%3); q <= int32(o.Gap)+1 {
				quota[o.Cell], stamp[o.Cell] = q, quotaE
				want += int(q)
			}
		}
		for _, u := range under {
			rep[u.Cell], stamp[u.Cell] = -1, repE
			if live[u.Cell] > 0 {
				need++
			}
		}
		refQuota, refRep, refStamp := slices.Clone(quota), slices.Clone(rep), slices.Clone(stamp)
		pool := PoolRepScan(cellOf, quota, rep, stamp, quotaE, repE, nil, want, need)
		refPool := refPoolRepScan(cellOf, refQuota, refRep, refStamp, quotaE, repE, nil, want, need)
		if !slices.Equal(pool, refPool) {
			t.Fatalf("PoolRepScan pool diverges: %v vs %v", pool, refPool)
		}
		if !slices.Equal(rep, refRep) || !slices.Equal(quota, refQuota) || !slices.Equal(stamp, refStamp) {
			t.Fatal("PoolRepScan arenas diverge from reference")
		}
	})
}
