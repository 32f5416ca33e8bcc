package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSumMeanVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := Sum(xs); got != 10 {
		t.Errorf("Sum = %v, want 10", got)
	}
	if got := Mean(xs); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if got := Variance(xs); !almostEq(got, 1.25, 1e-12) {
		t.Errorf("Variance = %v, want 1.25", got)
	}
	if got := StdDev(xs); !almostEq(got, math.Sqrt(1.25), 1e-12) {
		t.Errorf("StdDev = %v", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if got := Variance([]float64{5}); got != 0 {
		t.Errorf("Variance(single) = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %v", got)
	}
}

func TestNormalize(t *testing.T) {
	xs := Normalize([]float64{1, 3, -2})
	if !almostEq(xs[0]+xs[1]+xs[2], 1, 1e-12) {
		t.Errorf("Normalize sum = %v", xs)
	}
	if xs[2] != 0 {
		t.Errorf("negative entry should clamp to 0, got %v", xs[2])
	}
	// All non-positive → uniform.
	u := Normalize([]float64{-1, -2})
	if u[0] != 0.5 || u[1] != 0.5 {
		t.Errorf("uniform fallback = %v", u)
	}
}

func TestJSDIdentity(t *testing.T) {
	p := []float64{0.2, 0.3, 0.5}
	d, err := JSD(p, p)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(d, 0, 1e-12) {
		t.Errorf("JSD(p,p) = %v, want 0", d)
	}
}

func TestJSDDisjoint(t *testing.T) {
	// Disjoint distributions have JSD = 1 (base-2).
	d, err := JSD([]float64{1, 0}, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(d, 1, 1e-9) {
		t.Errorf("JSD disjoint = %v, want 1", d)
	}
}

func TestJSDErrors(t *testing.T) {
	if _, err := JSD([]float64{1}, []float64{1, 2}); err != ErrLengthMismatch {
		t.Errorf("want ErrLengthMismatch, got %v", err)
	}
	if _, err := JSD(nil, nil); err != ErrEmpty {
		t.Errorf("want ErrEmpty, got %v", err)
	}
}

func TestJSDPropertyBounds(t *testing.T) {
	f := func(a, b [8]uint8) bool {
		p := make([]float64, 8)
		q := make([]float64, 8)
		for i := range p {
			p[i] = float64(a[i])
			q[i] = float64(b[i])
		}
		// Guard against all-zero inputs (handled as uniform).
		d, err := JSD(p, q)
		if err != nil {
			return false
		}
		// Symmetric, bounded in [0, 1].
		d2, _ := JSD(q, p)
		return d >= 0 && d <= 1+1e-9 && almostEq(d, d2, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJSDCounts(t *testing.T) {
	p := map[string]float64{"tcp": 9, "udp": 1}
	q := map[string]float64{"tcp": 9, "udp": 1}
	if d := JSDCounts(p, q); !almostEq(d, 0, 1e-12) {
		t.Errorf("identical counts JSD = %v", d)
	}
	r := map[string]float64{"icmp": 10}
	if d := JSDCounts(p, r); !almostEq(d, 1, 1e-9) {
		t.Errorf("disjoint counts JSD = %v, want 1", d)
	}
}

func TestEMDSamples(t *testing.T) {
	d, err := EMDSamples([]float64{0, 0, 0}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(d, 1, 1e-12) {
		t.Errorf("EMD samples = %v, want 1", d)
	}
	// Identity and symmetry.
	a := []float64{1, 5, 9, 2}
	b := []float64{0, 4, 8, 3}
	d1, _ := EMDSamples(a, b)
	d2, _ := EMDSamples(b, a)
	if !almostEq(d1, d2, 1e-12) {
		t.Errorf("EMD not symmetric: %v vs %v", d1, d2)
	}
	d0, _ := EMDSamples(a, a)
	if !almostEq(d0, 0, 1e-12) {
		t.Errorf("EMD identity = %v", d0)
	}
}

func TestEMDSamplesProperty(t *testing.T) {
	// Translation: EMD(x, x+c) == |c|.
	f := func(raw [6]int8, shift int8) bool {
		c := float64(shift)
		a := make([]float64, 6)
		b := make([]float64, 6)
		for i, v := range raw {
			a[i] = float64(v)
			b[i] = float64(v) + c
		}
		d, err := EMDSamples(a, b)
		if err != nil {
			return false
		}
		return almostEq(d, math.Abs(c), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizeRange(t *testing.T) {
	out := NormalizeRange([]float64{0, 5, 10}, 0.1, 0.9)
	want := []float64{0.1, 0.5, 0.9}
	for i := range want {
		if !almostEq(out[i], want[i], 1e-12) {
			t.Errorf("NormalizeRange[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	// Constant input → midpoint.
	mid := NormalizeRange([]float64{4, 4}, 0.1, 0.9)
	if mid[0] != 0.5 || mid[1] != 0.5 {
		t.Errorf("constant input = %v", mid)
	}
}

func TestRanksWithTies(t *testing.T) {
	r := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Errorf("Ranks[%d] = %v, want %v", i, r[i], want[i])
		}
	}
}

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	r, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 1, 1e-12) {
		t.Errorf("Pearson = %v, want 1", r)
	}
	neg := []float64{8, 6, 4, 2}
	r, _ = Pearson(x, neg)
	if !almostEq(r, -1, 1e-12) {
		t.Errorf("Pearson = %v, want -1", r)
	}
}

func TestPearsonZeroVariance(t *testing.T) {
	r, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if r != 0 {
		t.Errorf("zero-variance Pearson = %v, want 0", r)
	}
}

func TestSpearmanMonotone(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{1, 4, 9, 16, 25} // monotone, nonlinear
	rho, err := Spearman(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(rho, 1, 1e-12) {
		t.Errorf("Spearman monotone = %v, want 1", rho)
	}
}

func TestSpearmanBoundsProperty(t *testing.T) {
	f := func(a, b [7]int8) bool {
		x := make([]float64, 7)
		y := make([]float64, 7)
		for i := range x {
			x[i] = float64(a[i])
			y[i] = float64(b[i])
		}
		rho, err := Spearman(x, y)
		if err != nil {
			return false
		}
		return rho >= -1-1e-9 && rho <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTotalVariation(t *testing.T) {
	tv, err := TotalVariation([]float64{1, 0}, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(tv, 1, 1e-12) {
		t.Errorf("TV disjoint = %v, want 1", tv)
	}
}

func TestCountsOf(t *testing.T) {
	c := CountsOf([]string{"a", "b", "a"})
	if c["a"] != 2 || c["b"] != 1 {
		t.Errorf("CountsOf = %v", c)
	}
}
