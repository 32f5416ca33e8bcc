package kernels

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// The equivalence suite: every exported kernel against its ref.go
// twin, across shapes that exercise the 8-lane bodies, their scalar
// tails, and empty input.

var rowCases = []int{0, 1, 7, 8, 9, 15, 16, 63, 257, 2000}

func TestGapSweepMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, cells := range []int{0, 1, 8, 9, 100, 1584} {
		for trial := 0; trial < 20; trial++ {
			live := make([]int32, cells)
			counts := make([]float64, cells)
			var nonzero, tcells []int
			for c := 0; c < cells; c++ {
				if rng.Float64() < 0.4 {
					live[c] = int32(1 + rng.IntN(50))
					nonzero = append(nonzero, c)
				}
				counts[c] = rng.Float64() * 40
				if counts[c] > 0.5 {
					tcells = append(tcells, c)
				}
			}
			gotO, gotU, gotL1 := GapSweep(live, counts, tcells, 0.5, nil, nil)
			wantO, wantU, wantL1 := refGapSweep(live, counts, tcells, 0.5, nil, nil)
			if gotL1 != wantL1 || !slices.Equal(gotO, wantO) || !slices.Equal(gotU, wantU) {
				t.Fatalf("GapSweep(cells=%d) diverges from reference", cells)
			}
			// The merge route over the sorted nonzero cells must agree
			// with the sweep byte for byte — that is planUpdate's
			// route-independence contract.
			mO, mU, mL1 := GapMerge(nonzero, live, counts, tcells, 0.5, nil, nil)
			if mL1 != wantL1 || !slices.Equal(mO, wantO) || !slices.Equal(mU, wantU) {
				t.Fatalf("GapMerge(cells=%d) diverges from GapSweep", cells)
			}
		}
	}
}

// scanCase is one PoolRepScan input: row cells, stamped quotas over
// some cells and unresolved representatives over a disjoint set.
type scanCase struct {
	cellOf       []int32
	quota, rep   []int32
	stamp        []uint32
	want, need   int
	quotaE, repE uint32
}

// clone deep-copies the arenas the scan mutates.
func (sc scanCase) clone() scanCase {
	sc.quota = slices.Clone(sc.quota)
	sc.rep = slices.Clone(sc.rep)
	sc.stamp = slices.Clone(sc.stamp)
	return sc
}

// checkPoolRepScan runs the kernel and its reference on copies of one
// case and requires the same pool, representatives, leftover quotas
// and stamps.
func checkPoolRepScan(t *testing.T, tag string, in scanCase) {
	t.Helper()
	got, want := in.clone(), in.clone()
	gotPool := PoolRepScan(got.cellOf, got.quota, got.rep, got.stamp, got.quotaE, got.repE, nil, got.want, got.need)
	wantPool := refPoolRepScan(want.cellOf, want.quota, want.rep, want.stamp, want.quotaE, want.repE, nil, want.want, want.need)
	if !slices.Equal(gotPool, wantPool) {
		t.Fatalf("%s: pool diverges from reference: %v vs %v", tag, gotPool, wantPool)
	}
	if !slices.Equal(got.rep, want.rep) || !slices.Equal(got.quota, want.quota) || !slices.Equal(got.stamp, want.stamp) {
		t.Fatalf("%s: rep/quota/stamp arenas diverge from reference", tag)
	}
}

func TestPoolRepScanMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	const cells = 97
	for _, n := range rowCases {
		for trial := 0; trial < 5; trial++ {
			in := scanCase{
				cellOf: make([]int32, n),
				quota:  make([]int32, cells),
				rep:    make([]int32, cells),
				stamp:  make([]uint32, cells),
				quotaE: 31,
				repE:   32,
			}
			for r := range in.cellOf {
				in.cellOf[r] = int32(rng.IntN(cells))
			}
			seen := make([]bool, cells)
			for _, c := range in.cellOf {
				seen[c] = true
			}
			for c := 0; c < cells; c++ {
				in.rep[c] = -1
				switch u := rng.Float64(); {
				case u < 0.3:
					in.stamp[c] = in.quotaE
					in.quota[c] = int32(1 + rng.IntN(4))
					in.want += int(in.quota[c])
				case u < 0.6:
					in.stamp[c] = in.repE
					if seen[c] {
						in.need++
					}
				default:
					in.stamp[c] = uint32(rng.IntN(30)) // an older plan's epoch
				}
			}
			checkPoolRepScan(t, fmt.Sprintf("n=%d trial=%d", n, trial), in)
			// A quota larger than its cell's rows leaves the pool short,
			// so the scan must run to the last row.
			in.want += n
			checkPoolRepScan(t, fmt.Sprintf("n=%d trial=%d short", n, trial), in)
		}
	}
}
