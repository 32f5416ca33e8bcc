// Package dp implements the differential-privacy substrate used by
// NetDPSyn and its baselines: zero-Concentrated Differential Privacy
// (zCDP) accounting, the (ε, δ) → ρ conversion from Bun & Steinke,
// the Gaussian mechanism, the exponential mechanism (used by the PGM
// baseline), and the DP-SGD noise multiplier under subsampling (used
// by the NetShare baseline).
//
// NetDPSyn publishes marginal tables with the Gaussian mechanism: a
// marginal has L2 sensitivity 1 under record-level neighbouring, so
// adding N(0, 1/(2ρ)) to every cell satisfies ρ-zCDP (PrivSyn,
// Theorem 6).
package dp

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
)

// Errors returned by budget operations.
var (
	ErrBudgetExhausted = errors.New("dp: privacy budget exhausted")
	ErrInvalidBudget   = errors.New("dp: invalid privacy parameters")
)

// RhoFromEpsDelta converts an (ε, δ)-DP target into the largest ρ such
// that ρ-zCDP implies (ε, δ)-DP via the standard conversion
// ε = ρ + 2·sqrt(ρ·ln(1/δ)) (Bun & Steinke 2016; used by PrivSyn).
func RhoFromEpsDelta(eps, delta float64) (float64, error) {
	// !(x > 0) instead of x <= 0: NaN fails every comparison, so the
	// negated form catches it where the direct form silently passes.
	if !(eps > 0) || math.IsInf(eps, 0) || !(delta > 0) || delta >= 1 {
		return 0, fmt.Errorf("%w: eps=%v delta=%v", ErrInvalidBudget, eps, delta)
	}
	l := math.Log(1 / delta)
	// Solve x^2 + 2·x·sqrt(l) - eps = 0 for x = sqrt(ρ) ≥ 0.
	x := -math.Sqrt(l) + math.Sqrt(l+eps)
	return x * x, nil
}

// EpsFromRhoDelta is the inverse direction: the (ε, δ) guarantee implied
// by ρ-zCDP at the given δ.
func EpsFromRhoDelta(rho, delta float64) (float64, error) {
	if !(rho >= 0) || math.IsInf(rho, 0) || !(delta > 0) || delta >= 1 {
		return 0, fmt.Errorf("%w: rho=%v delta=%v", ErrInvalidBudget, rho, delta)
	}
	return rho + 2*math.Sqrt(rho*math.Log(1/delta)), nil
}

// GaussianSigma returns the noise standard deviation for a query with
// L2 sensitivity delta2 to satisfy ρ-zCDP: σ = Δ₂ / sqrt(2ρ).
func GaussianSigma(delta2, rho float64) (float64, error) {
	if delta2 <= 0 || rho <= 0 {
		return 0, fmt.Errorf("%w: sensitivity=%v rho=%v", ErrInvalidBudget, delta2, rho)
	}
	return delta2 / math.Sqrt(2*rho), nil
}

// Accountant tracks zCDP budget consumption. zCDP composes additively,
// which is what makes it convenient for the multi-phase NetDPSyn
// pipeline (binning, selection, publication).
type Accountant struct {
	total float64
	spent float64
}

// NewAccountant creates an accountant with the given total ρ budget.
// The budget must be finite and positive: a NaN or +Inf total would
// make every later overdraw comparison false and silently disable the
// ceiling.
func NewAccountant(rho float64) (*Accountant, error) {
	if !(rho > 0) || math.IsInf(rho, 0) {
		return nil, fmt.Errorf("%w: rho=%v", ErrInvalidBudget, rho)
	}
	return &Accountant{total: rho}, nil
}

// Total returns the total ρ budget.
func (a *Accountant) Total() float64 { return a.total }

// Spent returns the ρ consumed so far.
func (a *Accountant) Spent() float64 { return a.spent }

// Remaining returns the unspent ρ.
func (a *Accountant) Remaining() float64 { return a.total - a.spent }

// CanSpend reports whether Spend(rho) would succeed, without mutating
// the ledger. Callers that must externalize a charge before applying
// it (journal it durably, say) check admissibility here first.
func (a *Accountant) CanSpend(rho float64) bool {
	if !(rho >= 0) { // !(x >= 0) also catches NaN
		return false
	}
	const tol = 1e-9
	return a.spent+rho <= a.total*(1+tol)+tol
}

// Spend consumes rho from the budget, failing if it would overdraw.
// A tiny tolerance absorbs floating-point drift from fractional splits.
func (a *Accountant) Spend(rho float64) error {
	if !(rho >= 0) {
		return fmt.Errorf("%w: invalid spend %v", ErrInvalidBudget, rho)
	}
	if !a.CanSpend(rho) {
		return fmt.Errorf("%w: want %v, remaining %v", ErrBudgetExhausted, rho, a.Remaining())
	}
	a.spent += rho
	return nil
}

// ForceSpend records spend without enforcing the ceiling, for
// replaying a durable ledger whose charges were already admitted when
// they happened. If the replayed spend exceeds the total (possible
// only under corruption), Remaining goes negative and every further
// Spend fails — the conservative direction. Negative and NaN values
// are ignored: a refund can never be replayed into existence.
func (a *Accountant) ForceSpend(rho float64) {
	if !(rho >= 0) {
		return
	}
	a.spent += rho
}

// Split returns fractions of the total budget according to the given
// weights (they are normalized internally). NetDPSyn uses
// Split(0.1, 0.1, 0.8) for binning / selection / publication.
func (a *Accountant) Split(weights ...float64) []float64 {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	out := make([]float64, len(weights))
	if sum <= 0 {
		return out
	}
	for i, w := range weights {
		out[i] = a.total * w / sum
	}
	return out
}

// Gaussian is the Gaussian mechanism specialized for vector-valued
// queries (marginal tables) with L2 sensitivity 1 by default.
type Gaussian struct {
	Sigma float64
	rng   *rand.Rand
}

// NewGaussian creates a Gaussian mechanism satisfying ρ-zCDP for a
// query with L2 sensitivity delta2, seeded deterministically.
func NewGaussian(delta2, rho float64, seed uint64) (*Gaussian, error) {
	sigma, err := GaussianSigma(delta2, rho)
	if err != nil {
		return nil, err
	}
	return &Gaussian{Sigma: sigma, rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}, nil
}

// Perturb adds N(0, σ²) noise to every element of xs in place and
// returns xs.
func (g *Gaussian) Perturb(xs []float64) []float64 {
	for i := range xs {
		xs[i] += g.rng.NormFloat64() * g.Sigma
	}
	return xs
}

// PerturbScalar adds N(0, σ²) noise to a single value.
func (g *Gaussian) PerturbScalar(x float64) float64 {
	return x + g.rng.NormFloat64()*g.Sigma
}

// Exponential implements the exponential mechanism: it selects index i
// with probability proportional to exp(ε·score_i / (2·Δ)) where Δ is
// the score sensitivity. The PGM baseline uses it for structure
// selection.
type Exponential struct {
	Eps         float64
	Sensitivity float64
	rng         *rand.Rand
}

// NewExponential creates an exponential mechanism instance.
func NewExponential(eps, sensitivity float64, seed uint64) (*Exponential, error) {
	if eps <= 0 || sensitivity <= 0 {
		return nil, fmt.Errorf("%w: eps=%v sensitivity=%v", ErrInvalidBudget, eps, sensitivity)
	}
	return &Exponential{Eps: eps, Sensitivity: sensitivity,
		rng: rand.New(rand.NewPCG(seed, seed^0x2545f4914f6cdd1d))}, nil
}

// Select draws an index from scores with exponential-mechanism
// probabilities. It is numerically stabilized by subtracting the max
// score.
func (e *Exponential) Select(scores []float64) (int, error) {
	if len(scores) == 0 {
		return 0, errors.New("dp: exponential mechanism with no candidates")
	}
	maxS := scores[0]
	for _, s := range scores[1:] {
		if s > maxS {
			maxS = s
		}
	}
	weights := make([]float64, len(scores))
	var total float64
	for i, s := range scores {
		w := math.Exp(e.Eps * (s - maxS) / (2 * e.Sensitivity))
		weights[i] = w
		total += w
	}
	r := e.rng.Float64() * total
	for i, w := range weights {
		r -= w
		if r <= 0 {
			return i, nil
		}
	}
	return len(scores) - 1, nil
}

// SubsampledNoiseMultiplier returns the σ needed so that `steps`
// DP-SGD steps with Poisson sampling rate q fit within ρ total
// budget, using the standard small-q approximation for the
// subsampled Gaussian mechanism under zCDP: ρ_step ≈ q²/(2σ²).
// This is the amplification-by-sampling accounting the NetShare
// baseline relies on (without it, DP-SGD noise is catastrophic at
// any reasonable ε, which is the paper's §3.1 argument).
func SubsampledNoiseMultiplier(rho float64, steps int, q float64) (float64, error) {
	if rho <= 0 || steps <= 0 || q <= 0 || q > 1 {
		return 0, fmt.Errorf("%w: rho=%v steps=%d q=%v", ErrInvalidBudget, rho, steps, q)
	}
	return q * math.Sqrt(float64(steps)/(2*rho)), nil
}
