// Package copula implements a Gaussian-copula trace synthesizer under
// differential privacy. The paper mentions it in §2.3: "We did
// preliminary experiments with Gaussian copula, but the result was
// unsatisfactory" — this implementation exists to reproduce that
// observation (its Figure 3 / Table 1 numbers trail the
// marginal-based methods) and as a starting point for the
// copula-adaptation future work the paper proposes.
//
// The method: bin every attribute (shared substrate), publish noisy
// 1-way marginals (→ private empirical CDFs) and a noisy correlation
// matrix of the normal scores, then sample a multivariate normal with
// that correlation (Cholesky) and map each coordinate through the
// inverse CDF. Gaussian copulas capture only monotone pairwise
// dependence, which is precisely why they lose the port↔label-style
// structure that network traces carry.
package copula

import (
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/netdpsyn/netdpsyn/internal/binning"
	"github.com/netdpsyn/netdpsyn/internal/dataset"
	"github.com/netdpsyn/netdpsyn/internal/dp"
	"github.com/netdpsyn/netdpsyn/internal/trace"
)

// Config configures the copula baseline.
type Config struct {
	// Epsilon and Delta form the DP target.
	Epsilon, Delta float64
	// Binning is the discretization config.
	Binning binning.Config
	// SynthRecords fixes the output size (0 = same as input).
	SynthRecords int
	// Seed drives all randomness.
	Seed uint64
}

// DefaultConfig mirrors the evaluation's settings.
func DefaultConfig() Config {
	return Config{Epsilon: 2.0, Delta: 1e-5, Binning: binning.DefaultConfig(), Seed: 1}
}

// Synthesizer is the Gaussian-copula baseline.
type Synthesizer struct {
	cfg Config
}

// New validates the config and returns a synthesizer.
func New(cfg Config) (*Synthesizer, error) {
	if cfg.Epsilon <= 0 || cfg.Delta <= 0 || cfg.Delta >= 1 {
		return nil, fmt.Errorf("copula: invalid privacy target eps=%v delta=%v", cfg.Epsilon, cfg.Delta)
	}
	return &Synthesizer{cfg: cfg}, nil
}

// Name returns the baseline's display name.
func (s *Synthesizer) Name() string { return "Copula" }

// Synthesize runs the copula pipeline on a raw trace table.
func (s *Synthesizer) Synthesize(t *dataset.Table) (*dataset.Table, error) {
	cfg := s.cfg
	rho, err := dp.RhoFromEpsDelta(cfg.Epsilon, cfg.Delta)
	if err != nil {
		return nil, err
	}
	// Budget: 0.2 for binning/CDFs (the binning pass publishes the
	// 1-way marginals we use as CDFs), 0.8 for the correlation matrix.
	rhoBin, rhoCorr := 0.2*rho, 0.8*rho

	enc, encoded, err := binning.Build(t, cfg.Binning, rhoBin, cfg.Seed^0xea)
	if err != nil {
		return nil, err
	}
	d := encoded.NumAttrs()
	n := encoded.NumRows()

	// Private CDFs from the noisy 1-way marginals.
	cdfs := make([][]float64, d)
	for a := 0; a < d; a++ {
		cdfs[a] = cdfOf(enc.Attrs[a].NoisyCounts)
	}

	// Normal scores per record: z = Φ⁻¹(midpoint CDF of its bin).
	scores := make([][]float64, d)
	for a := 0; a < d; a++ {
		scores[a] = make([]float64, n)
		for r := 0; r < n; r++ {
			scores[a][r] = normalScore(cdfs[a], int(encoded.Cols[a][r]))
		}
	}

	// Correlation matrix of the normal scores, published with the
	// Gaussian mechanism. Each pairwise correlation has sensitivity
	// O(1/n) after clamping scores; we use a conservative bound of
	// 4·zmax²/n with zmax = 3 (scores are clipped).
	corr := make([][]float64, d)
	for i := range corr {
		corr[i] = make([]float64, d)
		corr[i][i] = 1
	}
	pairs := d * (d - 1) / 2
	rhoPer := rhoCorr / float64(max(pairs, 1))
	sens := 4.0 * 9.0 / float64(n)
	gm, err := dp.NewGaussian(sens, rhoPer, cfg.Seed^0xeb)
	if err != nil {
		return nil, err
	}
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			c := pearson(scores[i], scores[j])
			c = gm.PerturbScalar(c)
			if c > 0.99 {
				c = 0.99
			}
			if c < -0.99 {
				c = -0.99
			}
			corr[i][j], corr[j][i] = c, c
		}
	}

	// Cholesky with diagonal loading until positive definite.
	var chol [][]float64
	for load := 0.0; ; load += 0.05 {
		chol, err = cholesky(addDiagonal(corr, load))
		if err == nil {
			break
		}
		if load > 1.0 {
			return nil, fmt.Errorf("copula: correlation matrix not repairable: %w", err)
		}
	}

	// Sample: multivariate normal → per-attribute inverse CDF → bin
	// code → decode.
	nOut := cfg.SynthRecords
	if nOut <= 0 {
		nOut = n
	}
	rng := rand.New(rand.NewPCG(cfg.Seed^0xec, cfg.Seed^0xed))
	synth := dataset.NewEncoded(encoded.Names, encoded.Domains, nOut)
	zs := make([]float64, d)
	ys := make([]float64, d)
	for r := 0; r < nOut; r++ {
		for i := range zs {
			zs[i] = rng.NormFloat64()
		}
		// y = L·z gives correlated normals.
		for i := 0; i < d; i++ {
			var s float64
			for j := 0; j <= i; j++ {
				s += chol[i][j] * zs[j]
			}
			ys[i] = s
		}
		for a := 0; a < d; a++ {
			synth.Cols[a][r] = int32(inverseCDF(cdfs[a], stdNormalCDF(ys[a])))
		}
	}

	return enc.Decode(synth, binning.DecodeOptions{
		Seed:    cfg.Seed ^ 0xee,
		GroupBy: fiveTuple(t.Schema()),
		TSField: tsFieldOf(t.Schema()),
		Constraints: []binning.GreaterEq{
			{A: trace.FieldByt, B: trace.FieldPkt},
		},
	})
}

// cdfOf turns noisy non-negative counts into a CDF over bin codes.
func cdfOf(counts []float64) []float64 {
	cdf := make([]float64, len(counts))
	var total float64
	for _, c := range counts {
		if c > 0 {
			total += c
		}
	}
	if total <= 0 {
		for i := range cdf {
			cdf[i] = float64(i+1) / float64(len(cdf))
		}
		return cdf
	}
	var acc float64
	for i, c := range counts {
		if c > 0 {
			acc += c
		}
		cdf[i] = acc / total
	}
	return cdf
}

// normalScore maps a bin code to Φ⁻¹ of its CDF midpoint, clipped to
// ±3 (the clipping bounds the correlation sensitivity).
func normalScore(cdf []float64, code int) float64 {
	lo := 0.0
	if code > 0 {
		lo = cdf[code-1]
	}
	hi := cdf[code]
	mid := (lo + hi) / 2
	z := stdNormalQuantile(mid)
	if z > 3 {
		z = 3
	}
	if z < -3 {
		z = -3
	}
	return z
}

// inverseCDF returns the bin code whose CDF interval contains u.
func inverseCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// stdNormalCDF is Φ via erf.
func stdNormalCDF(x float64) float64 {
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}

// stdNormalQuantile is Φ⁻¹ by bisection on Φ (plenty fast for our
// per-record use; stdlib has no erfinv for this form).
func stdNormalQuantile(p float64) float64 {
	if p <= 0 {
		return -8
	}
	if p >= 1 {
		return 8
	}
	lo, hi := -8.0, 8.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if stdNormalCDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// pearson computes the correlation of two equal-length score vectors.
func pearson(a, b []float64) float64 {
	n := float64(len(a))
	if n == 0 {
		return 0
	}
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var sab, saa, sbb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	if saa <= 0 || sbb <= 0 {
		return 0
	}
	return sab / math.Sqrt(saa*sbb)
}

// cholesky returns the lower-triangular L with L·Lᵀ = m, or an error
// if m is not positive definite.
func cholesky(m [][]float64) ([][]float64, error) {
	d := len(m)
	l := make([][]float64, d)
	for i := range l {
		l[i] = make([]float64, d)
	}
	for i := 0; i < d; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			for k := 0; k < j; k++ {
				s += l[i][k] * l[j][k]
			}
			if i == j {
				v := m[i][i] - s
				if v <= 0 {
					return nil, fmt.Errorf("copula: not positive definite at %d (%v)", i, v)
				}
				l[i][j] = math.Sqrt(v)
			} else {
				l[i][j] = (m[i][j] - s) / l[j][j]
			}
		}
	}
	return l, nil
}

func addDiagonal(m [][]float64, load float64) [][]float64 {
	d := len(m)
	out := make([][]float64, d)
	for i := range out {
		out[i] = append([]float64(nil), m[i]...)
		out[i][i] += load
	}
	// Renormalize to a correlation matrix.
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			if i != j {
				out[i][j] /= 1 + load
			} else {
				out[i][j] = 1 + load
			}
		}
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func fiveTuple(s *dataset.Schema) []string {
	var out []string
	for _, name := range []string{trace.FieldSrcIP, trace.FieldDstIP, trace.FieldSrcPort, trace.FieldDstPort, trace.FieldProto} {
		if s.Has(name) {
			out = append(out, name)
		}
	}
	return out
}

func tsFieldOf(s *dataset.Schema) string {
	if s.Has(trace.FieldTS) {
		return trace.FieldTS
	}
	return ""
}
