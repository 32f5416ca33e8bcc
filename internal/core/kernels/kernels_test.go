package kernels

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// The equivalence suite: every exported kernel against its ref.go
// twin, across shapes that exercise the 8-lane bodies, their scalar
// tails, and empty input.

var rowCases = []int{0, 1, 7, 8, 9, 15, 16, 63, 257, 2000}

func randCols(rng *rand.Rand, n int, doms ...int) [][]int32 {
	cols := make([][]int32, len(doms))
	for i, d := range doms {
		cols[i] = make([]int32, n)
		for r := range cols[i] {
			cols[i][r] = int32(rng.IntN(d))
		}
	}
	return cols
}

func TestCellsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range rowCases {
		cols := randCols(rng, n, 16, 9, 11)
		got := make([]int, n)
		want := make([]int, n)

		Cells2(got, cols[0], cols[1], 9)
		refCells2(want, cols[0], cols[1], 9)
		if !slices.Equal(got, want) {
			t.Fatalf("Cells2 n=%d diverges from reference", n)
		}

		Cells3(got, cols[0], cols[1], cols[2], 99, 11)
		refCells3(want, cols[0], cols[1], cols[2], 99, 11)
		if !slices.Equal(got, want) {
			t.Fatalf("Cells3 n=%d diverges from reference", n)
		}

		for i, c := range cols {
			AccumStride(got, c, 3+i, i == 0)
			refAccumStride(want, c, 3+i, i == 0)
			if !slices.Equal(got, want) {
				t.Fatalf("AccumStride n=%d col=%d diverges from reference", n, i)
			}
		}
	}
}

// arena is a pair of tally arenas (kernel under test vs reference)
// over the same cell space.
type arena struct {
	vals, refVals   []float64
	stamp, refStamp []uint32
	epoch           uint32
}

func newArena(cells int, epoch uint32) *arena {
	return &arena{
		vals:     make([]float64, cells),
		refVals:  make([]float64, cells),
		stamp:    make([]uint32, cells),
		refStamp: make([]uint32, cells),
		epoch:    epoch,
	}
}

func (a *arena) check(t *testing.T, tag string, touched, refTouched []int) {
	t.Helper()
	if !slices.Equal(touched, refTouched) {
		t.Fatalf("%s: touched diverges from reference: %v vs %v", tag, touched, refTouched)
	}
	if !slices.Equal(a.stamp, a.refStamp) {
		t.Fatalf("%s: stamp arena diverges from reference", tag)
	}
	for c := range a.vals {
		if a.stamp[c] == a.epoch && a.vals[c] != a.refVals[c] {
			t.Fatalf("%s: vals[%d] = %v, reference %v", tag, c, a.vals[c], a.refVals[c])
		}
	}
}

func TestTallyMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	const cells = 16 * 9 * 11
	for _, n := range rowCases {
		cols := randCols(rng, n, 16, 9, 11)
		cellOf := make([]int, n)
		refCellOf := make([]int, n)

		// 2-way fused.
		a := newArena(cells, 7)
		got := Cells2Tally(cellOf, cols[0], cols[1], 9, a.vals, a.stamp, a.epoch, nil)
		want := refCells2Tally(refCellOf, cols[0], cols[1], 9, a.refVals, a.refStamp, a.epoch, nil)
		a.check(t, "Cells2Tally", got, want)
		if !slices.Equal(cellOf, refCellOf) {
			t.Fatal("Cells2Tally cellOf diverges")
		}

		// 3-way fused.
		a = newArena(cells, 9)
		got = Cells3Tally(cellOf, cols[0], cols[1], cols[2], 99, 11, a.vals, a.stamp, a.epoch, nil)
		want = refCells3Tally(refCellOf, cols[0], cols[1], cols[2], 99, 11, a.refVals, a.refStamp, a.epoch, nil)
		a.check(t, "Cells3Tally", got, want)
		if !slices.Equal(cellOf, refCellOf) {
			t.Fatal("Cells3Tally cellOf diverges")
		}

		// Plain tally over precomputed cells.
		a = newArena(cells, 11)
		got = Tally(cellOf, a.vals, a.stamp, a.epoch, nil)
		want = refTally(refCellOf, a.refVals, a.refStamp, a.epoch, nil)
		a.check(t, "Tally", got, want)
	}
}

func TestGapSweepMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, cells := range []int{0, 1, 8, 9, 100, 1584} {
		for trial := 0; trial < 20; trial++ {
			const epoch = 21
			vals := make([]float64, cells)
			stamp := make([]uint32, cells)
			counts := make([]float64, cells)
			var touched, tcells []int
			for c := 0; c < cells; c++ {
				if rng.Float64() < 0.4 {
					stamp[c] = epoch
					vals[c] = float64(rng.IntN(50))
					touched = append(touched, c)
				}
				counts[c] = rng.Float64() * 40
				if counts[c] > 0.5 {
					tcells = append(tcells, c)
				}
			}
			gotO, gotU, gotL1 := GapSweep(vals, stamp, epoch, counts, tcells, 0.5, nil, nil)
			wantO, wantU, wantL1 := refGapSweep(vals, stamp, epoch, counts, tcells, 0.5, nil, nil)
			if gotL1 != wantL1 || !slices.Equal(gotO, wantO) || !slices.Equal(gotU, wantU) {
				t.Fatalf("GapSweep(cells=%d) diverges from reference", cells)
			}
			// The merge route over the sorted touched set must agree
			// with the sweep byte for byte — that is planUpdate's
			// route-independence contract.
			mO, mU, mL1 := GapMerge(touched, vals, counts, tcells, 0.5, nil, nil)
			if mL1 != wantL1 || !slices.Equal(mO, wantO) || !slices.Equal(mU, wantU) {
				t.Fatalf("GapMerge(cells=%d) diverges from GapSweep", cells)
			}
		}
	}
}

func TestPoolRepScanMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	const cells = 97
	for _, n := range rowCases {
		cellOf := make([]int, n)
		for r := range cellOf {
			cellOf[r] = rng.IntN(cells)
		}
		const epoch = 31
		vals := make([]float64, cells)
		refVals := make([]float64, cells)
		stamp := make([]uint32, cells)
		want := 0
		for c := 0; c < cells; c++ {
			if rng.Float64() < 0.3 {
				q := rng.IntN(4)
				stamp[c] = epoch
				vals[c], refVals[c] = float64(q), float64(q)
				want += q
			}
		}
		gotPool := PoolScan(cellOf, vals, stamp, epoch, nil, want)
		wantPool := refPoolScan(cellOf, refVals, stamp, epoch, nil, want)
		if !slices.Equal(gotPool, wantPool) {
			t.Fatalf("PoolScan(n=%d) diverges from reference", n)
		}
		for c := range vals {
			if stamp[c] == epoch && vals[c] != refVals[c] {
				t.Fatalf("PoolScan leftover quota at cell %d: %v vs %v", c, vals[c], refVals[c])
			}
		}

		rep := make([]int32, cells)
		refRep := make([]int32, cells)
		rstamp := make([]uint32, cells)
		need := 0
		for c := 0; c < cells; c++ {
			rep[c], refRep[c] = -1, -1
			if rng.Float64() < 0.3 {
				rstamp[c] = epoch
				need++
			}
		}
		RepScan(cellOf, rep, rstamp, epoch, need)
		refRepScan(cellOf, refRep, rstamp, epoch, need)
		if !slices.Equal(rep, refRep) {
			t.Fatalf("RepScan(n=%d) diverges from reference", n)
		}
	}
}
