package dp

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestRhoFromEpsDeltaRoundTrip(t *testing.T) {
	// ρ obtained from (ε, δ) must convert back to exactly ε.
	for _, eps := range []float64{0.1, 1, 2, 10} {
		rho, err := RhoFromEpsDelta(eps, 1e-5)
		if err != nil {
			t.Fatal(err)
		}
		back, err := EpsFromRhoDelta(rho, 1e-5)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(back-eps) > 1e-9 {
			t.Errorf("eps %v → rho %v → eps %v", eps, rho, back)
		}
	}
}

func TestRhoMonotoneInEps(t *testing.T) {
	f := func(a, b uint8) bool {
		e1 := 0.01 + float64(a)/16
		e2 := e1 + 0.01 + float64(b)/16
		r1, err1 := RhoFromEpsDelta(e1, 1e-5)
		r2, err2 := RhoFromEpsDelta(e2, 1e-5)
		return err1 == nil && err2 == nil && r2 > r1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRhoInvalid(t *testing.T) {
	// ε ≤ 0 and δ outside (0,1) — including δ = 1 and δ > 1, which
	// give no privacy — must all be refused, not mapped to NaN/Inf.
	for _, tc := range [][2]float64{
		{0, 1e-5}, {-1, 1e-5}, // ε ≤ 0
		{1, 0}, {1, -1e-5}, // δ ≤ 0
		{1, 1}, {1, 1.5}, {1, 2}, // δ ≥ 1
		{math.NaN(), 1e-5}, {math.Inf(1), 1e-5}, {1, math.NaN()}, // non-finite
	} {
		if _, err := RhoFromEpsDelta(tc[0], tc[1]); !errors.Is(err, ErrInvalidBudget) {
			t.Errorf("RhoFromEpsDelta(%v, %v): want ErrInvalidBudget, got %v", tc[0], tc[1], err)
		}
	}
	// δ just under 1 is degenerate but legal: ln(1/δ) → 0 and ρ → ε.
	rho, err := RhoFromEpsDelta(2, 1-1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho-2) > 1e-4 {
		t.Errorf("ρ(ε=2, δ→1) = %v, want → 2", rho)
	}
}

func TestEpsFromRhoDeltaEdges(t *testing.T) {
	for _, tc := range [][2]float64{
		{-0.1, 1e-5},       // ρ < 0
		{1, 0}, {1, -1e-5}, // δ ≤ 0
		{1, 1}, {1, 2}, // δ ≥ 1
		{math.NaN(), 1e-5}, {math.Inf(1), 1e-5}, {1, math.NaN()}, // non-finite
	} {
		if _, err := EpsFromRhoDelta(tc[0], tc[1]); !errors.Is(err, ErrInvalidBudget) {
			t.Errorf("EpsFromRhoDelta(%v, %v): want ErrInvalidBudget, got %v", tc[0], tc[1], err)
		}
	}
	// ρ = 0 is a valid cumulative state (nothing spent yet): ε = 0.
	eps, err := EpsFromRhoDelta(0, 1e-5)
	if err != nil || eps != 0 {
		t.Errorf("EpsFromRhoDelta(0, 1e-5) = %v, %v; want 0, nil", eps, err)
	}
}

func TestAccountantRejectsNonFinite(t *testing.T) {
	// A NaN/Inf ceiling would make every overdraw comparison false
	// and disable the budget entirely.
	for _, rho := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := NewAccountant(rho); !errors.Is(err, ErrInvalidBudget) {
			t.Errorf("NewAccountant(%v): want ErrInvalidBudget, got %v", rho, err)
		}
	}
	a, err := NewAccountant(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(math.NaN()); !errors.Is(err, ErrInvalidBudget) {
		t.Errorf("Spend(NaN): want ErrInvalidBudget, got %v", err)
	}
	if a.Spent() != 0 {
		t.Errorf("rejected spend mutated the ledger: %v", a.Spent())
	}
}

func TestGaussianSigma(t *testing.T) {
	// σ = Δ/sqrt(2ρ): with Δ=1, ρ=0.5 → σ=1.
	s, err := GaussianSigma(1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-1) > 1e-12 {
		t.Errorf("sigma = %v, want 1", s)
	}
	// Round trip through the zCDP cost ρ = Δ²/(2σ²).
	if rho := 1 / (2 * s * s); math.Abs(rho-0.5) > 1e-12 {
		t.Errorf("rho = %v, want 0.5", rho)
	}
}

func TestAccountantSpend(t *testing.T) {
	a, err := NewAccountant(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(0.6); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(0.5); !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("overdraw: want ErrBudgetExhausted, got %v", err)
	}
	if err := a.Spend(0.4); err != nil {
		t.Errorf("exact spend should work: %v", err)
	}
	if r := a.Remaining(); math.Abs(r) > 1e-9 {
		t.Errorf("remaining = %v, want 0", r)
	}
}

func TestAccountantCanSpend(t *testing.T) {
	a, err := NewAccountant(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if !a.CanSpend(0.6) || !a.CanSpend(1.0) {
		t.Error("admissible spends refused")
	}
	if a.CanSpend(1.1) || a.CanSpend(-0.1) || a.CanSpend(math.NaN()) {
		t.Error("inadmissible spends accepted")
	}
	// CanSpend never mutates: the full budget is still spendable.
	if err := a.Spend(1.0); err != nil {
		t.Fatal(err)
	}
	if a.CanSpend(0.1) {
		t.Error("exhausted accountant still admits spend")
	}
}

func TestAccountantForceSpend(t *testing.T) {
	a, err := NewAccountant(1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Replaying a durable ledger bypasses the ceiling check...
	a.ForceSpend(0.7)
	a.ForceSpend(0.7)
	if got := a.Spent(); math.Abs(got-1.4) > 1e-12 {
		t.Fatalf("forced spend = %v, want 1.4", got)
	}
	// ...and an over-ceiling replay locks the accountant: Remaining
	// goes negative and every further Spend fails (conservative).
	if a.Remaining() >= 0 {
		t.Fatalf("remaining = %v, want negative", a.Remaining())
	}
	if err := a.Spend(0.01); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("spend after over-ceiling replay = %v, want ErrBudgetExhausted", err)
	}
	// Refunds cannot be replayed into existence.
	a.ForceSpend(-5)
	a.ForceSpend(math.NaN())
	if got := a.Spent(); math.Abs(got-1.4) > 1e-12 {
		t.Fatalf("negative/NaN ForceSpend mutated the ledger: %v", got)
	}
}

func TestAccountantSplit(t *testing.T) {
	a, _ := NewAccountant(2.0)
	parts := a.Split(0.1, 0.1, 0.8)
	if math.Abs(parts[0]-0.2) > 1e-12 || math.Abs(parts[2]-1.6) > 1e-12 {
		t.Errorf("split = %v", parts)
	}
	var sum float64
	for _, p := range parts {
		sum += p
	}
	if math.Abs(sum-2.0) > 1e-12 {
		t.Errorf("split sum = %v", sum)
	}
}

func TestGaussianNoiseStatistics(t *testing.T) {
	g, err := NewGaussian(1, 0.125, 7) // σ = 2
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Sigma-2) > 1e-12 {
		t.Fatalf("sigma = %v, want 2", g.Sigma)
	}
	n := 20000
	xs := make([]float64, n)
	g.Perturb(xs)
	var mean, varsum float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	for _, x := range xs {
		varsum += (x - mean) * (x - mean)
	}
	sd := math.Sqrt(varsum / float64(n))
	if math.Abs(mean) > 0.1 {
		t.Errorf("noise mean = %v, want ≈0", mean)
	}
	if math.Abs(sd-2) > 0.1 {
		t.Errorf("noise sd = %v, want ≈2", sd)
	}
}

func TestGaussianDeterministicSeed(t *testing.T) {
	g1, _ := NewGaussian(1, 0.5, 42)
	g2, _ := NewGaussian(1, 0.5, 42)
	a := g1.Perturb(make([]float64, 10))
	b := g2.Perturb(make([]float64, 10))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed should give same noise: %v vs %v", a[i], b[i])
		}
	}
}

func TestExponentialPrefersHighScores(t *testing.T) {
	em, err := NewExponential(8, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	scores := []float64{0, 0, 10, 0}
	hits := 0
	for i := 0; i < 1000; i++ {
		pick, err := em.Select(scores)
		if err != nil {
			t.Fatal(err)
		}
		if pick == 2 {
			hits++
		}
	}
	if hits < 900 {
		t.Errorf("exponential mechanism picked best only %d/1000", hits)
	}
}

func TestExponentialEmpty(t *testing.T) {
	em, _ := NewExponential(1, 1, 1)
	if _, err := em.Select(nil); err == nil {
		t.Error("want error on empty candidates")
	}
}

func TestSubsampledNoiseMultiplier(t *testing.T) {
	// Without sampling, T steps at noise multiplier σ cost ρ = T/(2σ²),
	// so ρ = 1 over 100 steps needs σ = √(100/2).
	want := math.Sqrt(100 / (2 * 1.0))
	full, err := SubsampledNoiseMultiplier(1, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full-want) > 1e-12 {
		t.Errorf("full-batch sigma = %v, want %v", full, want)
	}
	// q scales σ linearly: amplification by sampling.
	sub, err := SubsampledNoiseMultiplier(1, 100, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sub-want*0.01) > 1e-12 {
		t.Errorf("subsampled sigma = %v, want %v", sub, want*0.01)
	}
	if _, err := SubsampledNoiseMultiplier(1, 100, 1.5); !errors.Is(err, ErrInvalidBudget) {
		t.Errorf("q>1 should be invalid, got %v", err)
	}
}
