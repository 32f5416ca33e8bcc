package marginal

import (
	"math"

	"github.com/netdpsyn/netdpsyn/internal/dataset"
	"github.com/netdpsyn/netdpsyn/internal/dp"
)

// InDifScorer computes PrivSyn's "independent difference" dependency
// metric for attribute pairs of one encoded table: the L1 distance
// between the actual 2-way marginal and the product of the 1-way
// marginals, InDif(a,b) = ‖M_ab − M_a ⊗ M_b / n‖₁. A large InDif means
// the pair is strongly correlated and costly to omit from the
// published set. Every attribute's 1-way counts are tallied once, at
// construction, and shared by all pairs; Score is safe for concurrent
// use.
type InDifScorer struct {
	e      *dataset.Encoded
	oneWay [][]float64
}

// NewInDifScorer tallies the exact 1-way counts of every attribute of e.
func NewInDifScorer(e *dataset.Encoded) *InDifScorer {
	s := &InDifScorer{e: e, oneWay: make([][]float64, e.NumAttrs())}
	for a, col := range e.Cols {
		counts := make([]float64, e.Domains[a])
		for _, c := range col {
			counts[c]++
		}
		s.oneWay[a] = counts
	}
	return s
}

// Score returns InDif(a, b). It tallies the pair's 2-way counts into
// tally, which is grown when shorter than the pair's cell count and
// returned, so a caller that keeps it (one per worker) allocates only
// for its largest pair.
func (s *InDifScorer) Score(a, b int, tally []int32) (float64, []int32) {
	n := float64(s.e.NumRows())
	if n == 0 {
		return 0, tally
	}
	ma, mb := s.oneWay[a], s.oneWay[b]
	da, db := len(ma), len(mb)
	if cap(tally) < da*db {
		tally = make([]int32, da*db)
	}
	tally = tally[:da*db]
	clear(tally)
	colA, colB := s.e.Cols[a], s.e.Cols[b]
	for r, ca := range colA {
		tally[int(ca)*db+int(colB[r])]++
	}
	var dist float64
	for i := 0; i < da; i++ {
		row := tally[i*db : (i+1)*db]
		for j, c := range row {
			expected := ma[i] * mb[j] / n
			dist += math.Abs(float64(c) - expected)
		}
	}
	return dist, tally
}

// InDifSensitivity is the L2 sensitivity of the InDif metric: adding
// or removing one record changes at most 4 terms by at most 1 each
// (PrivSyn §4.1 bounds it by 4).
const InDifSensitivity = 4.0

// PairScores holds the (optionally noisy) InDif score of every
// attribute pair, the input to DenseMarg selection.
type PairScores struct {
	// Pairs lists attribute index pairs (a < b).
	Pairs [][2]int
	// Scores are the InDif values aligned with Pairs.
	Scores []float64
}

// NewPairScores enumerates every attribute pair of a d-attribute
// table with zeroed scores, for callers that fill Scores themselves
// (the core engine fans the per-pair InDifScorer computations out
// over its worker pool and then calls Perturb).
func NewPairScores(d int) *PairScores {
	ps := &PairScores{}
	for a := 0; a < d; a++ {
		for b := a + 1; b < d; b++ {
			ps.Pairs = append(ps.Pairs, [2]int{a, b})
		}
	}
	ps.Scores = make([]float64, len(ps.Pairs))
	return ps
}

// Perturb adds Gaussian noise calibrated to the InDif sensitivity
// and split across all pairs, clamping negatives, making the
// selection step DP-compliant (NetDPSyn gives this step 0.1ρ). A
// single sequential RNG stream perturbs all scores, so the result
// does not depend on how the scores were computed. rho ≤ 0 leaves
// the scores exact.
func (ps *PairScores) Perturb(rho float64, seed uint64) error {
	if rho <= 0 || len(ps.Pairs) == 0 {
		return nil
	}
	per := rho / float64(len(ps.Pairs))
	gm, err := dp.NewGaussian(InDifSensitivity, per, seed)
	if err != nil {
		return err
	}
	gm.Perturb(ps.Scores)
	for i, s := range ps.Scores {
		if s < 0 {
			ps.Scores[i] = 0
		}
	}
	return nil
}

// ComputePairScores computes InDif for every attribute pair and
// applies Perturb's noise.
func ComputePairScores(e *dataset.Encoded, rho float64, seed uint64) (*PairScores, error) {
	ps := NewPairScores(e.NumAttrs())
	scorer := NewInDifScorer(e)
	var tally []int32
	for i, p := range ps.Pairs {
		ps.Scores[i], tally = scorer.Score(p[0], p[1], tally)
	}
	if err := ps.Perturb(rho, seed); err != nil {
		return nil, err
	}
	return ps, nil
}
