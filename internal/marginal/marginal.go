// Package marginal implements the marginal-table machinery at the
// center of NetDPSyn (§3.3): exact marginal computation over encoded
// tables, noisy publication with the Gaussian mechanism under zCDP,
// and the post-processing steps that repair published marginals —
// simplex projection, cross-marginal weighted-average consistency,
// and the τ-thresholded protocol-rule edits.
package marginal

import (
	"fmt"
	"math"
	"sort"

	"github.com/netdpsyn/netdpsyn/internal/dataset"
	"github.com/netdpsyn/netdpsyn/internal/dp"
)

// Marginal is a contingency table over a set of attributes of an
// encoded dataset. Counts are stored flattened in row-major order of
// the attribute list.
type Marginal struct {
	// Attrs are the attribute indices (into the Encoded table) this
	// marginal spans, in ascending order.
	Attrs []int
	// Domains are the attribute domain sizes, aligned with Attrs.
	Domains []int
	// Counts holds the (possibly noisy) cell counts.
	Counts []float64
	// Sigma is the standard deviation of the Gaussian noise added at
	// publication (0 for exact marginals). Consumers use it to weight
	// marginals during consistency and synthesis.
	Sigma float64
	// strides for index computation.
	strides []int
}

// New allocates a zero marginal over the given attributes.
func New(attrs, domains []int) *Marginal {
	m := &Marginal{
		Attrs:   append([]int(nil), attrs...),
		Domains: append([]int(nil), domains...),
	}
	m.initStrides()
	m.Counts = make([]float64, m.Cells())
	return m
}

func (m *Marginal) initStrides() {
	m.strides = make([]int, len(m.Domains))
	s := 1
	for i := len(m.Domains) - 1; i >= 0; i-- {
		m.strides[i] = s
		s *= m.Domains[i]
	}
}

// Cells returns the number of cells (product of domains).
func (m *Marginal) Cells() int {
	c := 1
	for _, d := range m.Domains {
		c *= d
	}
	return c
}

// Index flattens per-attribute codes into a cell index. It is the
// convenient (variadic) form for cold paths and tests; hot loops
// should accumulate stride products column-by-column instead (see
// Compute and GUM's cell-index pass), which avoids the per-call slice
// and walks each attribute column sequentially.
func (m *Marginal) Index(codes ...int32) int {
	idx := 0
	for i, c := range codes {
		idx += int(c) * m.strides[i]
	}
	return idx
}

// Strides returns the row-major stride of each attribute (aligned
// with Attrs): cell index = Σ code[i]·stride[i]. The slice is the
// marginal's own — callers must not modify it.
func (m *Marginal) Strides() []int { return m.strides }

// Cell returns the multi-dimensional codes of flattened index idx.
func (m *Marginal) Cell(idx int) []int32 {
	codes := make([]int32, len(m.Domains))
	m.CellInto(idx, codes)
	return codes
}

// CellInto writes the multi-dimensional codes of flattened index idx
// into the first len(Domains) entries of codes, which must be at
// least that long. It is the non-allocating form of Cell for hot
// loops (GUM's apply pass decodes one cell per replace move).
func (m *Marginal) CellInto(idx int, codes []int32) {
	for i, s := range m.strides {
		codes[i] = int32(idx / s)
		idx %= s
	}
}

// CellsInto writes the flattened cell index of every row of e into
// out (len ≥ e.NumRows()), adding one attribute column's stride
// products per pass. Compute and GUM's sparse tally build sit on top
// of this.
func (m *Marginal) CellsInto(e *dataset.Encoded, out []int) {
	out = out[:e.NumRows()]
	clear(out)
	for i, at := range m.Attrs {
		s := m.strides[i]
		for r, c := range e.Cols[at][:len(out)] {
			out[r] += int(c) * s
		}
	}
}

// Total returns the sum of all cells.
func (m *Marginal) Total() float64 {
	var t float64
	for _, c := range m.Counts {
		t += c
	}
	return t
}

// Clone deep-copies the marginal.
func (m *Marginal) Clone() *Marginal {
	c := &Marginal{
		Attrs:   append([]int(nil), m.Attrs...),
		Domains: append([]int(nil), m.Domains...),
		Counts:  append([]float64(nil), m.Counts...),
		Sigma:   m.Sigma,
	}
	c.initStrides()
	return c
}

// Compute tallies the exact marginal of the encoded table over the
// given attribute indices (ascending order enforced internally).
func Compute(e *dataset.Encoded, attrs []int) *Marginal {
	sorted := append([]int(nil), attrs...)
	sort.Ints(sorted)
	domains := make([]int, len(sorted))
	for i, a := range sorted {
		domains[i] = e.Domains[a]
	}
	m := New(sorted, domains)
	n := e.NumRows()
	switch len(sorted) {
	case 1:
		col := e.Cols[sorted[0]]
		for r := 0; r < n; r++ {
			m.Counts[col[r]]++
		}
	case 2:
		a, b := e.Cols[sorted[0]], e.Cols[sorted[1]]
		s0 := m.strides[0]
		for r := 0; r < n; r++ {
			m.Counts[int(a[r])*s0+int(b[r])]++
		}
	default:
		// Index every row's cell (CellsInto), then tally.
		idx := make([]int, n)
		m.CellsInto(e, idx)
		for _, ix := range idx {
			m.Counts[ix]++
		}
	}
	return m
}

// Publish returns a noisy copy of the marginal satisfying ρ-zCDP: a
// marginal has L2 sensitivity 1 under record-level neighbouring
// (PrivSyn Theorem 6), so N(0, 1/(2ρ)) is added to every cell.
func (m *Marginal) Publish(rho float64, seed uint64) (*Marginal, error) {
	gm, err := dp.NewGaussian(1, rho, seed)
	if err != nil {
		return nil, err
	}
	out := m.Clone()
	gm.Perturb(out.Counts)
	out.Sigma = gm.Sigma
	return out, nil
}

// Project marginalizes onto a single attribute (which must be in
// Attrs) and returns its 1-way counts.
func (m *Marginal) Project(attr int) ([]float64, error) {
	pos := -1
	for i, a := range m.Attrs {
		if a == attr {
			pos = i
			break
		}
	}
	if pos < 0 {
		return nil, fmt.Errorf("marginal: attribute %d not in %v", attr, m.Attrs)
	}
	out := make([]float64, m.Domains[pos])
	stride := m.strides[pos]
	dom := m.Domains[pos]
	block := stride * dom
	for base := 0; base < len(m.Counts); base += block {
		for v := 0; v < dom; v++ {
			off := base + v*stride
			for k := 0; k < stride; k++ {
				out[v] += m.Counts[off+k]
			}
		}
	}
	return out, nil
}

// AddToSlice adds delta to every cell where the given attribute takes
// value v (used by the consistency step).
func (m *Marginal) AddToSlice(attr int, v int32, delta float64) error {
	pos := -1
	for i, a := range m.Attrs {
		if a == attr {
			pos = i
			break
		}
	}
	if pos < 0 {
		return fmt.Errorf("marginal: attribute %d not in %v", attr, m.Attrs)
	}
	stride := m.strides[pos]
	dom := m.Domains[pos]
	block := stride * dom
	for base := 0; base < len(m.Counts); base += block {
		off := base + int(v)*stride
		for k := 0; k < stride; k++ {
			m.Counts[off+k] += delta
		}
	}
	return nil
}

// SliceCells returns the number of cells in one value-slice of the
// given attribute.
func (m *Marginal) SliceCells(attr int) int {
	pos := -1
	for i, a := range m.Attrs {
		if a == attr {
			pos = i
		}
	}
	if pos < 0 {
		return 0
	}
	return m.Cells() / m.Domains[pos]
}

// NormSub projects the noisy counts onto the valid simplex scaled to
// `total`: negative cells are zeroed and the residual is subtracted
// uniformly from the remaining positive cells, iterating until
// convergence (PrivSyn's norm_sub). This preserves the target total
// while removing negativity.
func (m *Marginal) NormSub(total float64) {
	if total < 0 {
		total = 0
	}
	for iter := 0; iter < 64; iter++ {
		var sum float64
		pos := 0
		for _, c := range m.Counts {
			if c > 0 {
				sum += c
				pos++
			}
		}
		if pos == 0 {
			u := total / float64(len(m.Counts))
			for i := range m.Counts {
				m.Counts[i] = u
			}
			return
		}
		diff := (sum - total) / float64(pos)
		done := math.Abs(sum-total) < 1e-9*math.Max(1, total)
		for i, c := range m.Counts {
			if c <= 0 {
				m.Counts[i] = 0
			} else if !done {
				m.Counts[i] = c - diff
			}
		}
		if done {
			return
		}
	}
	// Final cleanup after max iterations.
	for i, c := range m.Counts {
		if c < 0 {
			m.Counts[i] = 0
		}
	}
}

// PearsonCorr computes the Pearson correlation coefficient between
// the two attributes of a 2-way marginal, treating bin codes as
// numeric values weighted by cell counts. GUMMI uses it to order the
// label-containing marginals (no extra privacy budget: it reads only
// published counts).
func (m *Marginal) PearsonCorr() (float64, error) {
	if len(m.Attrs) != 2 {
		return 0, fmt.Errorf("marginal: PearsonCorr needs a 2-way marginal, have %d-way", len(m.Attrs))
	}
	da, db := m.Domains[0], m.Domains[1]
	var n, sa, sb, saa, sbb, sab float64
	for i := 0; i < da; i++ {
		for j := 0; j < db; j++ {
			w := m.Counts[i*db+j]
			if w <= 0 {
				continue
			}
			x, y := float64(i), float64(j)
			n += w
			sa += w * x
			sb += w * y
			saa += w * x * x
			sbb += w * y * y
			sab += w * x * y
		}
	}
	if n <= 0 {
		return 0, nil
	}
	cov := sab/n - (sa/n)*(sb/n)
	va := saa/n - (sa/n)*(sa/n)
	vb := sbb/n - (sb/n)*(sb/n)
	if va <= 0 || vb <= 0 {
		return 0, nil
	}
	return cov / math.Sqrt(va*vb), nil
}

// ExpectedL1NoiseError returns the expected L1 error of publishing a
// marginal with `cells` cells at noise level σ: cells·σ·sqrt(2/π).
// DenseMarg uses it as the noise-error term ψ.
func ExpectedL1NoiseError(cells int, sigma float64) float64 {
	return float64(cells) * sigma * math.Sqrt(2/math.Pi)
}
