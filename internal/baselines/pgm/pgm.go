// Package pgm implements the PGM baseline (McKenna et al., ICML'19)
// as evaluated in the paper: a graphical-model synthesizer that
// selects marginal distributions while building a Bayesian-network
// structure by iteratively optimizing (noisy) information gain with
// the exponential mechanism, measures the selected marginals with the
// Gaussian mechanism, and samples synthetic records from the fitted
// network.
//
// The paper's evaluation manually adds every 2-way marginal that
// contains the label attribute ("expected to boost the accuracy on
// machine-learning based tasks"); ManualLabelStar reproduces that
// setup. Nodes may condition on up to two parents (the tree parent
// and the label), in which case a 3-way marginal is measured.
package pgm

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"github.com/netdpsyn/netdpsyn/internal/binning"
	"github.com/netdpsyn/netdpsyn/internal/dataset"
	"github.com/netdpsyn/netdpsyn/internal/dp"
	"github.com/netdpsyn/netdpsyn/internal/marginal"
	"github.com/netdpsyn/netdpsyn/internal/trace"
)

// Config configures the PGM baseline.
type Config struct {
	// Epsilon and Delta form the DP target (shared with NetDPSyn for
	// fair comparison).
	Epsilon, Delta float64
	// Binning is the discretization config (same substrate as
	// NetDPSyn so comparisons isolate the synthesis method).
	Binning binning.Config
	// ManualLabelStar force-includes every (label, X) marginal, the
	// paper's evaluation setup.
	ManualLabelStar bool
	// MaxParents caps the parent set per node (1 = tree, 2 = tree
	// parent + label).
	MaxParents int
	// MaxCells rejects conditional tables larger than this.
	MaxCells int
	// EstimationIters is the number of iterative marginal-estimation
	// sweeps reconciling the measured marginals (private-pgm's
	// mirror-descent estimation phase; the bulk of its runtime).
	EstimationIters int
	// SynthRecords fixes the output size (0 = same as input).
	SynthRecords int
	// Seed drives all randomness.
	Seed uint64
}

// DefaultConfig mirrors the evaluation's settings.
func DefaultConfig() Config {
	return Config{
		Epsilon:         2.0,
		Delta:           1e-5,
		Binning:         binning.DefaultConfig(),
		ManualLabelStar: true,
		MaxParents:      2,
		MaxCells:        1 << 20,
		EstimationIters: 400,
		Seed:            1,
	}
}

// Synthesizer is the PGM baseline.
type Synthesizer struct {
	cfg Config
}

// New validates the config and returns a synthesizer.
func New(cfg Config) (*Synthesizer, error) {
	if cfg.Epsilon <= 0 || cfg.Delta <= 0 || cfg.Delta >= 1 {
		return nil, fmt.Errorf("pgm: invalid privacy target eps=%v delta=%v", cfg.Epsilon, cfg.Delta)
	}
	if cfg.MaxParents <= 0 {
		cfg.MaxParents = 1
	}
	return &Synthesizer{cfg: cfg}, nil
}

// Name returns the baseline's display name.
func (s *Synthesizer) Name() string { return "PGM" }

// node is one attribute of the Bayesian network.
type node struct {
	attr    int
	parents []int
	// cond is the published marginal over {attr} ∪ parents used as
	// the conditional table.
	cond *marginal.Marginal
}

// Synthesize runs the PGM pipeline on a raw trace table.
func (s *Synthesizer) Synthesize(t *dataset.Table) (*dataset.Table, error) {
	cfg := s.cfg
	rho, err := dp.RhoFromEpsDelta(cfg.Epsilon, cfg.Delta)
	if err != nil {
		return nil, err
	}
	// Budget: 0.1 binning, 0.1 structure, 0.8 measurement (aligned
	// with NetDPSyn's split for comparability).
	rhoBin, rhoStruct, rhoMeasure := 0.1*rho, 0.1*rho, 0.8*rho

	enc, encoded, err := binning.Build(t, cfg.Binning, rhoBin, cfg.Seed^0xaa)
	if err != nil {
		return nil, err
	}
	d := encoded.NumAttrs()
	label := labelIndex(t, encoded)

	// Structure learning: grow a spanning tree from the label by
	// repeatedly selecting the next (in-tree, out-tree) edge with the
	// exponential mechanism over mutual-information scores.
	nodes, err := s.learnStructure(encoded, label, rhoStruct)
	if err != nil {
		return nil, err
	}

	// The evaluation's manual addition: label becomes a parent of
	// every node (bounded by MaxParents and MaxCells).
	if cfg.ManualLabelStar {
		for i := range nodes {
			n := &nodes[i]
			if n.attr == label || containsInt(n.parents, label) {
				continue
			}
			if len(n.parents)+1 <= cfg.MaxParents &&
				cells(encoded, append(append([]int{}, n.parents...), n.attr, label)) <= float64(cfg.MaxCells) {
				n.parents = append(n.parents, label)
			} else if len(n.parents) > 0 {
				// Replace the weakest parent with the label.
				n.parents[len(n.parents)-1] = label
			} else {
				n.parents = []int{label}
			}
		}
	}

	// Measure one marginal per node over {attr} ∪ parents with the
	// unequal allocation ρ_i ∝ c_i^(2/3).
	if err := s.measure(encoded, nodes, rhoMeasure); err != nil {
		return nil, err
	}

	// Estimation: reconcile the measured marginals iteratively so
	// shared attributes agree (private-pgm's estimation phase — the
	// dominant cost of the real system).
	iters := cfg.EstimationIters
	if iters <= 0 {
		iters = 1
	}
	ms := make([]*marginal.Marginal, len(nodes))
	for i := range nodes {
		ms[i] = nodes[i].cond
	}
	for it := 0; it < iters; it++ {
		if err := marginal.ConsistAttributes(ms, 1); err != nil {
			return nil, err
		}
		for i := range ms {
			ms[i].NormSub(float64(encoded.NumRows()))
		}
	}

	// Sample synthetic records in topological order.
	n := cfg.SynthRecords
	if n <= 0 {
		n = t.NumRows()
	}
	synth, err := s.sample(encoded, nodes, label, n)
	if err != nil {
		return nil, err
	}
	_ = d
	return enc.Decode(synth, binning.DecodeOptions{
		Seed:    cfg.Seed ^ 0xab,
		GroupBy: fiveTuple(t.Schema()),
		TSField: tsFieldOf(t.Schema()),
		Constraints: []binning.GreaterEq{
			{A: trace.FieldByt, B: trace.FieldPkt},
		},
	})
}

// learnStructure builds a spanning tree rooted at the label using the
// exponential mechanism over pairwise mutual information.
func (s *Synthesizer) learnStructure(e *dataset.Encoded, label int, rho float64) ([]node, error) {
	d := e.NumAttrs()
	// Mutual information for every pair (exact; privacy comes from
	// the exponential mechanism that consumes the structure budget).
	mi := make([][]float64, d)
	for i := range mi {
		mi[i] = make([]float64, d)
	}
	for a := 0; a < d; a++ {
		for b := a + 1; b < d; b++ {
			v := mutualInformation(e, a, b)
			mi[a][b], mi[b][a] = v, v
		}
	}
	// d−1 exponential-mechanism selections share the structure
	// budget. Convert each share to an ε via pure-DP (ε²/2 = ρ).
	selections := d - 1
	if selections <= 0 {
		return []node{{attr: label}}, nil
	}
	epsPer := math.Sqrt(2 * rho / float64(selections))
	em, err := dp.NewExponential(epsPer, 1.0, s.cfg.Seed^0xac)
	if err != nil {
		return nil, err
	}

	inTree := map[int]bool{label: true}
	nodes := []node{{attr: label}}
	for len(inTree) < d {
		type cand struct {
			child, parent int
			score         float64
		}
		var cands []cand
		for child := 0; child < d; child++ {
			if inTree[child] {
				continue
			}
			for parent := range inTree {
				cands = append(cands, cand{child, parent, mi[child][parent]})
			}
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].child != cands[b].child {
				return cands[a].child < cands[b].child
			}
			return cands[a].parent < cands[b].parent
		})
		scores := make([]float64, len(cands))
		for i, c := range cands {
			scores[i] = c.score
		}
		pick, err := em.Select(scores)
		if err != nil {
			return nil, err
		}
		c := cands[pick]
		inTree[c.child] = true
		nodes = append(nodes, node{attr: c.child, parents: []int{c.parent}})
	}
	return nodes, nil
}

// measure publishes each node's conditional marginal.
func (s *Synthesizer) measure(e *dataset.Encoded, nodes []node, rho float64) error {
	cellCounts := make([]float64, len(nodes))
	var denom float64
	for i, n := range nodes {
		attrs := append([]int{n.attr}, n.parents...)
		cellCounts[i] = cells(e, attrs)
		denom += math.Pow(cellCounts[i], 2.0/3.0)
	}
	for i := range nodes {
		attrs := append([]int{nodes[i].attr}, nodes[i].parents...)
		ri := rho * math.Pow(cellCounts[i], 2.0/3.0) / denom
		m := marginal.Compute(e, attrs)
		pub, err := m.Publish(ri, s.cfg.Seed^0xad+uint64(i)*131)
		if err != nil {
			return err
		}
		pub.NormSub(float64(e.NumRows()))
		nodes[i].cond = pub
	}
	return nil
}

// sample draws records from the Bayesian network in topological
// order (nodes were appended in tree-growth order, so parents always
// precede children).
func (s *Synthesizer) sample(e *dataset.Encoded, nodes []node, label, n int) (*dataset.Encoded, error) {
	rng := rand.New(rand.NewPCG(s.cfg.Seed^0xae, s.cfg.Seed^0xaf))
	out := dataset.NewEncoded(e.Names, e.Domains, n)
	for r := 0; r < n; r++ {
		for _, nd := range nodes {
			code, err := sampleNode(&nd, out, r, rng)
			if err != nil {
				return nil, err
			}
			out.Cols[nd.attr][r] = code
		}
	}
	_ = label
	return out, nil
}

// sampleNode draws the node's code conditioned on its already-sampled
// parents.
func sampleNode(nd *node, out *dataset.Encoded, r int, rng *rand.Rand) (int32, error) {
	m := nd.cond
	// Position of the node's own attribute inside the marginal.
	selfPos := -1
	for i, a := range m.Attrs {
		if a == nd.attr {
			selfPos = i
			break
		}
	}
	if selfPos < 0 {
		return 0, fmt.Errorf("pgm: conditional lacks own attribute %d", nd.attr)
	}
	dom := m.Domains[selfPos]
	weights := make([]float64, dom)
	// Walk the marginal's cells matching the parent values.
	codes := make([]int32, len(m.Attrs))
	for i, a := range m.Attrs {
		if a != nd.attr {
			codes[i] = out.Cols[a][r]
		}
	}
	for v := 0; v < dom; v++ {
		codes[selfPos] = int32(v)
		w := m.Counts[m.Index(codes...)]
		if w > 0 {
			weights[v] = w
		}
	}
	return int32(sampleWeighted(weights, rng)), nil
}

func sampleWeighted(weights []float64, rng *rand.Rand) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return rng.IntN(len(weights))
	}
	u := rng.Float64() * total
	for i, w := range weights {
		u -= w
		if u <= 0 {
			return i
		}
	}
	return len(weights) - 1
}

// mutualInformation computes I(a; b) in nats from exact marginals.
func mutualInformation(e *dataset.Encoded, a, b int) float64 {
	n := float64(e.NumRows())
	if n == 0 {
		return 0
	}
	ma := marginal.Compute(e, []int{a})
	mb := marginal.Compute(e, []int{b})
	mab := marginal.Compute(e, []int{a, b})
	da, db := ma.Domains[0], mb.Domains[0]
	var mi float64
	for i := 0; i < da; i++ {
		for j := 0; j < db; j++ {
			pxy := mab.Counts[i*db+j] / n
			if pxy <= 0 {
				continue
			}
			px, py := ma.Counts[i]/n, mb.Counts[j]/n
			mi += pxy * math.Log(pxy/(px*py))
		}
	}
	return mi
}

func cells(e *dataset.Encoded, attrs []int) float64 {
	c := 1.0
	seen := map[int]bool{}
	for _, a := range attrs {
		if !seen[a] {
			c *= float64(e.Domains[a])
			seen[a] = true
		}
	}
	return c
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func labelIndex(t *dataset.Table, e *dataset.Encoded) int {
	if li := t.Schema().LabelIndex(); li >= 0 {
		if i := e.Index(t.Schema().Fields[li].Name); i >= 0 {
			return i
		}
	}
	return 0
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
