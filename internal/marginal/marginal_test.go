package marginal

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"github.com/netdpsyn/netdpsyn/internal/dataset"
)

// tinyEncoded builds a 3-attribute encoded table with known joint
// structure: b == a for the first half, b random-ish otherwise.
func tinyEncoded() *dataset.Encoded {
	e := dataset.NewEncoded([]string{"a", "b", "c"}, []int{3, 3, 2}, 12)
	av := []int32{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2}
	bv := []int32{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 0, 1}
	cv := []int32{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}
	copy(e.Cols[0], av)
	copy(e.Cols[1], bv)
	copy(e.Cols[2], cv)
	return e
}

func TestComputeOneWay(t *testing.T) {
	e := tinyEncoded()
	m := Compute(e, []int{0})
	want := []float64{4, 4, 4}
	for i, w := range want {
		if m.Counts[i] != w {
			t.Errorf("count[%d] = %v, want %v", i, m.Counts[i], w)
		}
	}
	if m.Total() != 12 {
		t.Errorf("total = %v", m.Total())
	}
}

func TestComputeTwoWay(t *testing.T) {
	e := tinyEncoded()
	m := Compute(e, []int{0, 1})
	if m.Cells() != 9 {
		t.Fatalf("cells = %d", m.Cells())
	}
	// (a=0,b=0) appears 4 times.
	if got := m.Counts[m.Index(0, 0)]; got != 4 {
		t.Errorf("cell(0,0) = %v, want 4", got)
	}
	if got := m.Counts[m.Index(2, 2)]; got != 2 {
		t.Errorf("cell(2,2) = %v, want 2", got)
	}
	// Attribute order is normalized ascending.
	m2 := Compute(e, []int{1, 0})
	if m2.Attrs[0] != 0 || m2.Attrs[1] != 1 {
		t.Errorf("attrs not sorted: %v", m2.Attrs)
	}
}

// TestComputeWide checks 3- and 4-way marginals, whose rows Compute
// indexes through CellsInto, against a per-row tally that flattens
// each row's codes in row-major order by hand. CellsInto itself must
// overwrite a reused buffer, as GUM's sparse tally build passes one.
func TestComputeWide(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	domains := []int{5, 3, 7, 2}
	for _, n := range []int{0, 1, 9, 1000} {
		e := dataset.NewEncoded([]string{"a", "b", "c", "d"}, domains, n)
		for a, d := range domains {
			for r := range e.Cols[a] {
				e.Cols[a][r] = int32(rng.IntN(d))
			}
		}
		for _, attrs := range [][]int{{0, 1, 2}, {3, 1, 0}, {1, 2, 3}, {2, 0, 3, 1}} {
			m := Compute(e, attrs)
			cells := make([]int, n)
			for r := range cells {
				cells[r] = -7 // stale contents CellsInto must overwrite
			}
			m.CellsInto(e, cells)
			want := map[int]float64{}
			for r := 0; r < n; r++ {
				cell := 0
				for _, a := range m.Attrs {
					cell = cell*domains[a] + int(e.Cols[a][r])
				}
				if cells[r] != cell {
					t.Fatalf("n=%d attrs=%v: CellsInto row %d = %d, want %d", n, m.Attrs, r, cells[r], cell)
				}
				want[cell]++
			}
			if m.Cells() != len(m.Counts) {
				t.Fatalf("n=%d attrs=%v: %d counts for %d cells", n, attrs, len(m.Counts), m.Cells())
			}
			for cell, got := range m.Counts {
				if got != want[cell] {
					t.Fatalf("n=%d attrs=%v: cell %d = %v, want %v", n, m.Attrs, cell, got, want[cell])
				}
			}
			for i := 1; i < len(m.Attrs); i++ {
				if m.Attrs[i-1] >= m.Attrs[i] {
					t.Fatalf("attrs not sorted: %v", m.Attrs)
				}
			}
		}
	}
}

func TestCellIndexRoundTripProperty(t *testing.T) {
	m := New([]int{0, 1, 2}, []int{4, 3, 5})
	f := func(a, b, c uint8) bool {
		codes := []int32{int32(a % 4), int32(b % 3), int32(c % 5)}
		idx := m.Index(codes...)
		back := m.Cell(idx)
		return back[0] == codes[0] && back[1] == codes[1] && back[2] == codes[2]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProject(t *testing.T) {
	e := tinyEncoded()
	m := Compute(e, []int{0, 1})
	pa, err := m.Project(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{4, 4, 4}
	for i := range want {
		if pa[i] != want[i] {
			t.Errorf("proj a[%d] = %v", i, pa[i])
		}
	}
	pb, err := m.Project(1)
	if err != nil {
		t.Fatal(err)
	}
	// b: 0 appears 5, 1 appears 5, 2 appears 2.
	if pb[0] != 5 || pb[1] != 5 || pb[2] != 2 {
		t.Errorf("proj b = %v", pb)
	}
	if _, err := m.Project(9); err == nil {
		t.Error("projecting absent attr must error")
	}
}

func TestAddToSlice(t *testing.T) {
	e := tinyEncoded()
	m := Compute(e, []int{0, 1})
	before, _ := m.Project(0)
	if err := m.AddToSlice(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	after, _ := m.Project(0)
	// Slice has 3 cells, each +0.5.
	if math.Abs(after[1]-before[1]-1.5) > 1e-12 {
		t.Errorf("slice sum delta = %v, want 1.5", after[1]-before[1])
	}
	if after[0] != before[0] {
		t.Error("other slices must not change")
	}
}

func TestPublishAddsCalibratedNoise(t *testing.T) {
	e := tinyEncoded()
	m := Compute(e, []int{0, 1})
	pub, err := m.Publish(0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pub.Sigma != 1 { // σ = 1/sqrt(2·0.5)
		t.Errorf("sigma = %v, want 1", pub.Sigma)
	}
	diff := false
	for i := range m.Counts {
		if pub.Counts[i] != m.Counts[i] {
			diff = true
		}
	}
	if !diff {
		t.Error("published marginal identical to exact")
	}
	// Original untouched.
	if m.Sigma != 0 {
		t.Error("original sigma changed")
	}
}

func TestNormSubPreservesTotalNonNeg(t *testing.T) {
	m := New([]int{0}, []int{4})
	copy(m.Counts, []float64{5, -2, 3, 1})
	m.NormSub(7)
	var sum float64
	for _, c := range m.Counts {
		if c < 0 {
			t.Fatalf("negative cell after NormSub: %v", m.Counts)
		}
		sum += c
	}
	if math.Abs(sum-7) > 1e-6 {
		t.Errorf("total = %v, want 7", sum)
	}
}

func TestNormSubProperty(t *testing.T) {
	f := func(raw [6]int8, totRaw uint8) bool {
		m := New([]int{0}, []int{6})
		for i, v := range raw {
			m.Counts[i] = float64(v)
		}
		total := float64(totRaw)
		m.NormSub(total)
		var sum float64
		for _, c := range m.Counts {
			if c < -1e-9 {
				return false
			}
			sum += c
		}
		return math.Abs(sum-total) < 1e-6*math.Max(1, total)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPearsonCorrPerfect(t *testing.T) {
	// Diagonal joint: perfect correlation.
	m := New([]int{0, 1}, []int{3, 3})
	m.Counts[m.Index(0, 0)] = 10
	m.Counts[m.Index(1, 1)] = 10
	m.Counts[m.Index(2, 2)] = 10
	r, err := m.PearsonCorr()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Errorf("diag corr = %v, want 1", r)
	}
	// Independent joint: zero correlation.
	for i := range m.Counts {
		m.Counts[i] = 1
	}
	r, _ = m.PearsonCorr()
	if math.Abs(r) > 1e-12 {
		t.Errorf("uniform corr = %v, want 0", r)
	}
	one := New([]int{0}, []int{3})
	if _, err := one.PearsonCorr(); err == nil {
		t.Error("1-way PearsonCorr must error")
	}
}

func TestInDifIndependentVsCorrelated(t *testing.T) {
	// Correlated pair (a, b): b == a for most rows.
	s := NewInDifScorer(tinyEncoded())
	corr, tally := s.Score(0, 1, nil)
	indep, _ := s.Score(0, 2, tally) // c alternates independently of a
	if corr <= indep {
		t.Errorf("InDif(corr)=%v should exceed InDif(indep)=%v", corr, indep)
	}
	if indep < 0 {
		t.Errorf("InDif negative: %v", indep)
	}
}

// inDifFromCompute is the InDif formula on Compute's float64 tallies,
// one set of three per pair: the oracle InDifScorer must match.
func inDifFromCompute(e *dataset.Encoded, a, b int) float64 {
	n := float64(e.NumRows())
	if n == 0 {
		return 0
	}
	ma := Compute(e, []int{a})
	mb := Compute(e, []int{b})
	mab := Compute(e, []int{a, b})
	da, db := ma.Domains[0], mb.Domains[0]
	var dist float64
	for i := 0; i < da; i++ {
		for j := 0; j < db; j++ {
			expected := ma.Counts[i] * mb.Counts[j] / n
			dist += math.Abs(mab.Counts[i*db+j] - expected)
		}
	}
	return dist
}

// TestInDifScorerMatchesCompute checks the shared-tally scores bit for
// bit against the per-pair Compute formula on random encoded tables,
// reusing one tally buffer across pairs of different shapes.
func TestInDifScorerMatchesCompute(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	for trial := 0; trial < 40; trial++ {
		d := 2 + rng.IntN(5)
		rows := rng.IntN(400)
		names := make([]string, d)
		domains := make([]int, d)
		for a := range domains {
			names[a] = string(rune('a' + a))
			domains[a] = 1 + rng.IntN(40)
		}
		e := dataset.NewEncoded(names, domains, rows)
		for a, col := range e.Cols {
			skew := 1 + rng.IntN(3) // some columns pile onto low codes
			for r := range col {
				c := rng.IntN(domains[a])
				for k := 1; k < skew; k++ {
					c = min(c, rng.IntN(domains[a]))
				}
				col[r] = int32(c)
			}
		}
		s := NewInDifScorer(e)
		var tally []int32
		for a := 0; a < d; a++ {
			for b := a + 1; b < d; b++ {
				var got float64
				got, tally = s.Score(a, b, tally)
				if want := inDifFromCompute(e, a, b); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d pair (%d,%d): score %v, Compute formula %v", trial, a, b, got, want)
				}
			}
		}
	}
}

func TestComputePairScores(t *testing.T) {
	e := tinyEncoded()
	ps, err := ComputePairScores(e, 0, 1) // rho=0: exact scores
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Pairs) != 3 {
		t.Fatalf("pairs = %d, want 3", len(ps.Pairs))
	}
	noisy, err := ComputePairScores(e, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range noisy.Scores {
		if s < 0 {
			t.Errorf("noisy score should be clamped non-negative: %v", s)
		}
	}
}

func TestExpectedL1NoiseError(t *testing.T) {
	got := ExpectedL1NoiseError(100, 2)
	want := 100 * 2 * math.Sqrt(2/math.Pi)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("noise error = %v, want %v", got, want)
	}
}
