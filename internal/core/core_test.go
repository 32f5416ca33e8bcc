package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"github.com/netdpsyn/netdpsyn/internal/marginal"
)

func TestSelectMarginalsPicksCorrelated(t *testing.T) {
	// Three attributes of domain 10; pair (0,1) strongly dependent,
	// others not.
	ps := &marginal.PairScores{
		Pairs:  [][2]int{{0, 1}, {0, 2}, {1, 2}},
		Scores: []float64{1000, 1, 1},
	}
	domains := []int{10, 10, 10}
	res := SelectMarginalsBounded(ps, domains, 1.0, 0, 0)
	if len(res.Selected) == 0 {
		t.Fatal("nothing selected")
	}
	first := res.Selected[0]
	if first[0] != 0 || first[1] != 1 {
		t.Errorf("first selected = %v, want [0 1]", first)
	}
	if res.TotalError <= 0 {
		t.Errorf("total error = %v", res.TotalError)
	}
}

func TestSelectMarginalsBudgetSensitivity(t *testing.T) {
	// With a huge budget, everything useful gets selected; with a
	// tiny budget, noise error dominates and selection shrinks.
	ps := &marginal.PairScores{
		Pairs:  [][2]int{{0, 1}, {0, 2}, {1, 2}},
		Scores: []float64{500, 400, 300},
	}
	domains := []int{50, 50, 50}
	rich := SelectMarginalsBounded(ps, domains, 100, 0, 0)
	poor := SelectMarginalsBounded(ps, domains, 1e-6, 0, 0)
	if len(rich.Selected) < len(poor.Selected) {
		t.Errorf("rich budget selected %d < poor %d", len(rich.Selected), len(poor.Selected))
	}
}

// TestSelectMarginalsCaps checks both caps against the uncapped run:
// no selected pair has more than maxCells cells, at most maxSelected
// pairs are selected, and each cap leaves out a pair that the
// uncapped run selects.
func TestSelectMarginalsCaps(t *testing.T) {
	domains := []int{4, 6, 8, 30, 50}
	ps := &marginal.PairScores{}
	for a := range domains {
		for b := a + 1; b < len(domains); b++ {
			ps.Pairs = append(ps.Pairs, [2]int{a, b})
			ps.Scores = append(ps.Scores, float64(domains[a]*domains[b]))
		}
	}
	cells := func(p []int) float64 { return float64(domains[p[0]] * domains[p[1]]) }
	key := func(p []int) [2]int { return [2]int{p[0], p[1]} }
	const rho = 1000
	full := SelectMarginalsBounded(ps, domains, rho, 0, 0)
	leftOut := func(sel [][]int) int {
		in := map[[2]int]bool{}
		for _, p := range sel {
			in[key(p)] = true
		}
		n := 0
		for _, p := range full.Selected {
			if !in[key(p)] {
				n++
			}
		}
		return n
	}

	const maxCells = 300
	big := 0
	for _, p := range full.Selected {
		if cells(p) > maxCells {
			big++
		}
	}
	if big == 0 || len(full.Selected) < 3 {
		t.Fatalf("uncapped run selects %v: the caps below would test nothing", full.Selected)
	}
	capped := SelectMarginalsBounded(ps, domains, rho, maxCells, 0)
	for _, p := range capped.Selected {
		if cells(p) > maxCells {
			t.Errorf("maxCells %d: selected %v with %.0f cells", maxCells, p, cells(p))
		}
	}
	if leftOut(capped.Selected) == 0 {
		t.Errorf("maxCells %d leaves out nothing the uncapped run selects: %v", maxCells, capped.Selected)
	}

	maxSelected := len(full.Selected) - 1
	bounded := SelectMarginalsBounded(ps, domains, rho, 0, maxSelected)
	if len(bounded.Selected) > maxSelected {
		t.Errorf("maxSelected %d: selected %d pairs", maxSelected, len(bounded.Selected))
	}
	if leftOut(bounded.Selected) == 0 {
		t.Errorf("maxSelected %d leaves out nothing the uncapped run selects: %v", maxSelected, bounded.Selected)
	}
}

func TestCombineMergesOverlapping(t *testing.T) {
	domains := []int{4, 4, 4, 100}
	sets := [][]int{{0, 1}, {1, 2}, {2, 3}}
	out := Combine(sets, domains, 64, 3)
	// {0,1} and {1,2} merge into {0,1,2} (64 cells); {2,3} stays (400
	// cells > 64 when merged with anything).
	foundTriple := false
	for _, s := range out {
		if len(s) == 3 && s[0] == 0 && s[1] == 1 && s[2] == 2 {
			foundTriple = true
		}
	}
	if !foundTriple {
		t.Errorf("expected merged {0,1,2}, got %v", out)
	}
	for _, s := range out {
		c := 1.0
		for _, a := range s {
			c *= float64(domains[a])
		}
		if len(s) > 2 && c > 64 {
			t.Errorf("oversized merge: %v (%.0f cells)", s, c)
		}
	}
}

func TestCombineRespectsArity(t *testing.T) {
	domains := []int{2, 2, 2, 2}
	sets := [][]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}}
	out := Combine(sets, domains, 1e9, 3)
	for _, s := range out {
		if len(s) > 3 {
			t.Errorf("arity cap violated: %v", s)
		}
	}
}

func TestCombineDisjointUntouched(t *testing.T) {
	domains := []int{2, 2, 2, 2}
	sets := [][]int{{0, 1}, {2, 3}}
	out := Combine(sets, domains, 1e9, 3)
	if len(out) != 2 {
		t.Errorf("disjoint sets should not merge: %v", out)
	}
}

func TestSubsetUnionHelpers(t *testing.T) {
	if !subset([]int{1, 3}, []int{0, 1, 2, 3}) {
		t.Error("subset false negative")
	}
	if subset([]int{1, 4}, []int{0, 1, 2, 3}) {
		t.Error("subset false positive")
	}
	u := union([]int{0, 2}, []int{1, 2, 3})
	want := []int{0, 1, 2, 3}
	if len(u) != len(want) {
		t.Fatalf("union = %v", u)
	}
	for i := range want {
		if u[i] != want[i] {
			t.Fatalf("union = %v", u)
		}
	}
	if !overlap([]int{1, 5}, []int{5, 9}) || overlap([]int{1, 2}, []int{3, 4}) {
		t.Error("overlap wrong")
	}
}

func TestUnionProperty(t *testing.T) {
	f := func(a, b [4]uint8) bool {
		sa := dedupSorted([]int{int(a[0] % 8), int(a[1] % 8), int(a[2] % 8), int(a[3] % 8)})
		sb := dedupSorted([]int{int(b[0] % 8), int(b[1] % 8), int(b[2] % 8), int(b[3] % 8)})
		u := union(sa, sb)
		// Sorted, deduplicated, contains both.
		for i := 1; i < len(u); i++ {
			if u[i] <= u[i-1] {
				return false
			}
		}
		return subset(sa, u) && subset(sb, u)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func dedupSorted(xs []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// buildTargets creates a simple 2-attribute target set with perfect
// correlation between attributes.
func buildTargets(n int) ([]*marginal.Marginal, []*marginal.Marginal, []int) {
	domains := []int{3, 3}
	joint := marginal.New([]int{0, 1}, domains)
	for v := 0; v < 3; v++ {
		joint.Counts[joint.Index(int32(v), int32(v))] = float64(n) / 3
	}
	one0 := marginal.New([]int{0}, []int{3})
	one1 := marginal.New([]int{1}, []int{3})
	for v := 0; v < 3; v++ {
		one0.Counts[v] = float64(n) / 3
		one1.Counts[v] = float64(n) / 3
	}
	return []*marginal.Marginal{joint}, []*marginal.Marginal{one0, one1}, domains
}

func TestGUMConvergesToTargets(t *testing.T) {
	n := 900
	published, oneWay, domains := buildTargets(n)
	init, err := InitIndependent([]string{"a", "b"}, domains, oneWay, n, 5)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGUM(published, n, GUMConfig{Iterations: 30, InitAlpha: 1, AlphaDecay: 0.84, DuplicateProb: 0.5, Seed: 5})
	errs := g.run(init, newEngine(0))
	if len(errs) != 30 {
		t.Fatalf("errors = %d rounds", len(errs))
	}
	if errs[len(errs)-1] >= errs[0] {
		t.Errorf("GUM error did not decrease: %v → %v", errs[0], errs[len(errs)-1])
	}
	// Final joint should be near-diagonal.
	match := 0
	for r := 0; r < n; r++ {
		if init.Cols[0][r] == init.Cols[1][r] {
			match++
		}
	}
	if float64(match)/float64(n) < 0.9 {
		t.Errorf("diagonal fraction = %v, want > 0.9", float64(match)/float64(n))
	}
}

func TestInitGUMMISeedsKeyCorrelations(t *testing.T) {
	n := 900
	published, oneWay, domains := buildTargets(n)
	init, err := InitGUMMI([]string{"a", "b"}, domains, oneWay, published, 0, n, 7)
	if err != nil {
		t.Fatal(err)
	}
	// GUMMI should already place most rows on the diagonal before any
	// GUM round.
	match := 0
	for r := 0; r < n; r++ {
		if init.Cols[0][r] == init.Cols[1][r] {
			match++
		}
	}
	if float64(match)/float64(n) < 0.95 {
		t.Errorf("GUMMI diagonal fraction = %v", float64(match)/float64(n))
	}
}

func TestInitGUMMIFasterThanGUM(t *testing.T) {
	// The Figure 8 claim in miniature: after ONE update round, GUMMI
	// is closer to the targets than plain GUM.
	n := 600
	published, oneWay, domains := buildTargets(n)
	gummi, err := InitGUMMI([]string{"a", "b"}, domains, oneWay, published, 0, n, 9)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := InitIndependent([]string{"a", "b"}, domains, oneWay, n, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := GUMConfig{Iterations: 1, InitAlpha: 1, AlphaDecay: 0.84, DuplicateProb: 0.5, Seed: 9}
	e1 := NewGUM(published, n, cfg).run(gummi, newEngine(0))
	e2 := NewGUM(published, n, cfg).run(plain, newEngine(0))
	if e1[0] >= e2[0] {
		t.Errorf("GUMMI initial error %v should beat GUM %v", e1[0], e2[0])
	}
}

func TestInitIndependentMatchesOneWay(t *testing.T) {
	n := 3000
	oneWay := []*marginal.Marginal{marginal.New([]int{0}, []int{2})}
	oneWay[0].Counts[0] = 0.9 * float64(n)
	oneWay[0].Counts[1] = 0.1 * float64(n)
	init, err := InitIndependent([]string{"a"}, []int{2}, oneWay, n, 11)
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, v := range init.Cols[0] {
		if v == 0 {
			zeros++
		}
	}
	frac := float64(zeros) / float64(n)
	if math.Abs(frac-0.9) > 0.03 {
		t.Errorf("sampled fraction = %v, want ≈0.9", frac)
	}
}

func TestInitGUMMIBadKey(t *testing.T) {
	_, oneWay, domains := buildTargets(100)
	if _, err := InitGUMMI([]string{"a", "b"}, domains, oneWay, nil, 99, 100, 1); err == nil {
		t.Error("out-of-range key must error")
	}
}

func TestNewPipelineValidation(t *testing.T) {
	bad := []Config{
		{Epsilon: 0, Delta: 1e-5},
		{Epsilon: 1, Delta: 0},
		{Epsilon: 1, Delta: 2},
	}
	for _, cfg := range bad {
		if _, err := NewPipeline(cfg); err == nil {
			t.Errorf("config %+v should fail validation", cfg)
		}
	}
	cfg := DefaultConfig()
	cfg.GUM.Iterations = 0
	if _, err := NewPipeline(cfg); err == nil {
		t.Error("zero iterations should fail")
	}
}

func TestConditionalSampler(t *testing.T) {
	m := marginal.New([]int{0, 1}, []int{2, 3})
	// key=0 → always b=2; key=1 → always b=0.
	m.Counts[m.Index(0, 2)] = 5
	m.Counts[m.Index(1, 0)] = 7
	cs, err := newConditionalSampler(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	init, _ := InitIndependent([]string{"x"}, []int{1}, []*marginal.Marginal{marginal.New([]int{0}, []int{1})}, 1, 1)
	_ = init
	rngSamples := func(k int32) []int32 {
		out := make([]int32, 0, 50)
		rng := rand.New(rand.NewPCG(3, 3^0x6a09e667f3bcc908))
		for i := 0; i < 50; i++ {
			cell := cs.Sample(rng, k)
			out = append(out, m.Cell(cell)[1])
		}
		return out
	}
	for _, b := range rngSamples(0) {
		if b != 2 {
			t.Fatalf("key 0 sampled b=%d, want 2", b)
		}
	}
	for _, b := range rngSamples(1) {
		if b != 0 {
			t.Fatalf("key 1 sampled b=%d, want 0", b)
		}
	}
}

// lowerBound is catSampler's search without the guide table: the
// first index whose cdf is ≥ u, or the last index.
func lowerBound(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return max(lo, 0)
}

// TestCatSamplerGuideMatchesSearch checks that the guide-table draw
// picks the same index as the plain lower-bound search for the same u,
// on random weights with zero runs, all-zero weights, and u at and
// next to every bucket edge k/len and every cdf value.
func TestCatSamplerGuideMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 8))
	check := func(s *catSampler) {
		t.Helper()
		n := len(s.cdf)
		us := []float64{0, math.Nextafter(1, 0)}
		for k := 0; k <= n; k++ {
			e := float64(k) / float64(n)
			us = append(us, e, math.Nextafter(e, 0), math.Nextafter(e, 1))
		}
		for _, c := range s.cdf {
			us = append(us, c, math.Nextafter(c, 0), math.Nextafter(c, 1))
		}
		for i := 0; i < 200; i++ {
			us = append(us, rng.Float64())
		}
		for _, u := range us {
			if u < 0 || u >= 1 {
				continue // outside Float64's range
			}
			if got, want := s.search(u), lowerBound(s.cdf, u); got != want {
				t.Fatalf("cdf %v, u=%v: guide search %d, lower bound %d", s.cdf, u, got, want)
			}
		}
	}
	check(newCatSampler(nil))
	check(newCatSampler([]float64{0}))
	check(newCatSampler([]float64{3}))
	// A cdf value one ulp below a bucket edge k/len: for u equal to
	// it, u·len can round up to k, past the answer's bucket.
	for n := 3; n <= 64; n++ {
		for k := 1; k < n; k++ {
			cdf := make([]float64, n)
			for i := range cdf {
				cdf[i] = float64(i+1) / float64(n)
			}
			cdf[k-1] = math.Nextafter(cdf[k-1], 0)
			check(&catSampler{cdf: cdf, guide: guideTable(cdf)})
		}
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.IntN(60)
		w := make([]float64, n)
		allZero := trial%10 == 0
		for i := range w {
			switch {
			case allZero:
			case rng.IntN(3) == 0:
				w[i] = 0
			case rng.IntN(5) == 0:
				w[i] = -rng.Float64() // negative weights count as zero
			default:
				w[i] = rng.ExpFloat64() * math.Pow(10, float64(rng.IntN(7)-3))
			}
		}
		check(newCatSampler(w))
	}
}

func TestCellsOf(t *testing.T) {
	if c := cellsOf([]int{2, 3, 4}, []int{0, 2}); c != 8 {
		t.Errorf("cellsOf = %v, want 8", c)
	}
}
