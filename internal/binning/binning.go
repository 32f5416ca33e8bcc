// Package binning implements NetDPSyn's pre-processing (§3.2 of the
// paper): a type-dependent binning pass that gives every network field
// an initial discretization suited to its semantics, followed by a
// frequency-dependent pass that merges low-count bins using *noisy*
// counts (so the merge decisions themselves satisfy DP), plus the
// inverse decoding used during record synthesis (§3.4), including the
// network-validity constraints and timestamp reconstruction from the
// auxiliary tsdiff attribute.
//
// Type-dependent rules (one per dataset.Kind):
//
//   - IP: frequent addresses keep their own bin; low-count addresses
//     are merged by /30 prefix (and progressively shorter prefixes if
//     still too sparse).
//   - Port: the well-known ports below 1024 are kept away from
//     binning; higher ports are binned with width 10.
//   - Categorical: never binned (small domains).
//   - Numeric: binned under the log transform log(1+x), giving far
//     fewer bins than linear binning.
//   - Timestamp: coarse equal-width bins; actual values are
//     reconstructed from tsdiff at decode time.
package binning

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"

	"github.com/netdpsyn/netdpsyn/internal/dataset"
	"github.com/netdpsyn/netdpsyn/internal/dp"
)

// Config tunes the binning rules. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// PortBinWidth is the bin width for ports ≥ CommonPortLimit.
	PortBinWidth int
	// CommonPortLimit is the boundary below which ports are kept
	// un-binned (the paper uses 1024).
	CommonPortLimit int
	// LogBinsPerUnit controls numeric binning granularity: the bin of
	// x is floor(log(1+x) · LogBinsPerUnit).
	LogBinsPerUnit float64
	// TimestampBins is the number of equal-width timestamp bins.
	TimestampBins int
	// MergeSigmas is the frequency-dependent merge threshold in units
	// of the noise standard deviation: bins with noisy count below
	// MergeSigmas·σ are merged.
	MergeSigmas float64
	// MinBinFraction floors the merge threshold at this fraction of
	// the record count. At large ε the noise σ (and with it the
	// 3σ threshold) goes to zero, which would leave near-singleton
	// bins everywhere and swamp the synthesis with million-cell
	// marginals; low-count bins are merged regardless of noise, as
	// in PrivSyn's low-count collapsing.
	MinBinFraction float64
	// MaxBinsPerAttr caps an attribute's final bin count; the merge
	// threshold is raised until the cap holds (keeps marginal tables
	// and GUM tractable).
	MaxBinsPerAttr int
}

// DefaultConfig returns the configuration used throughout the
// evaluation.
func DefaultConfig() Config {
	return Config{
		PortBinWidth:    10,
		CommonPortLimit: 1024,
		LogBinsPerUnit:  3,
		TimestampBins:   64,
		MergeSigmas:     3,
		MinBinFraction:  0.002,
		MaxBinsPerAttr:  2048,
	}
}

// Bin is a contiguous inclusive range [Lo, Hi] of raw values.
// Categorical bins and identity bins have Lo == Hi.
type Bin struct {
	Lo, Hi int64
}

// Width returns the number of raw values the bin covers; it overflows
// for bins of more than MaxInt64 values.
func (b Bin) Width() int64 { return b.Hi - b.Lo + 1 }

// Contains reports whether v falls inside the bin.
func (b Bin) Contains(v int64) bool { return v >= b.Lo && v <= b.Hi }

// Attr is the binning of a single attribute: the final ordered bins,
// the noisy 1-way marginal over those bins (published during the
// frequency-dependent pass and reusable downstream), and the
// kind-specific lookup structures.
type Attr struct {
	Field dataset.Field
	Bins  []Bin
	// NoisyCounts is the DP-protected 1-way marginal over Bins
	// (non-negative, from the binning budget).
	NoisyCounts []float64
	// Sigma is the per-cell Gaussian noise σ used when publishing
	// NoisyCounts (merged bins aggregate several noisy cells, so
	// their effective σ is larger; Sigma records the base level).
	Sigma float64
	// lookup maps exact raw values to bin codes for identity-style
	// kinds (IP, port, categorical).
	lookup map[int64]int32
	// sorted bin Lo bounds for range search on ordered kinds.
	los []int64
}

// Domain returns the number of bins.
func (a *Attr) Domain() int { return len(a.Bins) }

// Encoder holds the per-attribute binning of a table and performs
// encoding (raw → codes) and decoding (codes → raw).
type Encoder struct {
	Attrs []Attr
	cfg   Config
	// dicts are shared with the source table so categorical decode
	// can reproduce string values.
	dicts []*dataset.Dict
}

// Build derives the binning from a table and returns it together with
// the table's encoded form: every row's code (the same codes Encode
// would assign). rhoBin is the zCDP budget for the data-dependent
// (frequency) pass — NetDPSyn allocates 0.1ρ — split evenly across
// attributes. seed drives the noise. It is Prepare followed by
// Prep.Build.
func Build(t *dataset.Table, cfg Config, rhoBin float64, seed uint64) (*Encoder, *dataset.Encoded, error) {
	p, err := Prepare(t, cfg)
	if err != nil {
		return nil, nil, err
	}
	// No one else holds p, so the final codes may overwrite its row
	// indices instead of taking new columns.
	return p.build(cfg, rhoBin, seed, true)
}

// Prep is the type-dependent first pass over one table: every
// attribute's initial bins in sorted order, their exact counts, and
// every row's initial-bin index. It is a function of the table and the
// first-pass Config fields alone — no noise, no budget — so a table
// released many times needs it once. A Prep is read-only once built
// and may be shared by concurrent Build calls.
type Prep struct {
	cfg    Config // the first-pass fields only (see firstPass)
	n      int
	fields []dataset.Field
	dicts  []*dataset.Dict
	attrs  []prepAttr
}

// prepAttr is one attribute's first pass.
type prepAttr struct {
	initial []Bin
	counts  []float64
	idx     []int32 // each row's index into initial
}

// firstPass keeps the Config fields the first pass reads.
func firstPass(cfg Config) Config {
	return Config{
		PortBinWidth:    cfg.PortBinWidth,
		CommonPortLimit: cfg.CommonPortLimit,
		LogBinsPerUnit:  cfg.LogBinsPerUnit,
		TimestampBins:   cfg.TimestampBins,
	}
}

// Prepare runs the type-dependent first pass over a table. It refuses
// an empty table, a config the first pass cannot use, and a port
// outside 0–65535.
func Prepare(t *dataset.Table, cfg Config) (*Prep, error) {
	n := t.NumRows()
	if n == 0 {
		return nil, fmt.Errorf("binning: empty table")
	}
	// logBins walks boundaries until they leave the int64 range, and
	// portBins divides by the width.
	if k := cfg.LogBinsPerUnit; !(k > 0) || math.IsInf(k, 1) {
		return nil, fmt.Errorf("binning: LogBinsPerUnit %v is not positive and finite", k)
	}
	if cfg.PortBinWidth < 1 {
		return nil, fmt.Errorf("binning: PortBinWidth %d is not positive", cfg.PortBinWidth)
	}
	fields := t.Schema().Fields
	p := &Prep{
		cfg:    firstPass(cfg),
		n:      n,
		fields: slices.Clone(fields),
		dicts:  make([]*dataset.Dict, len(fields)),
		attrs:  make([]prepAttr, len(fields)),
	}
	for i, f := range fields {
		p.dicts[i] = t.Dict(i)
		if err := p.attrs[i].prepare(t.Column(i), f, cfg); err != nil {
			return nil, fmt.Errorf("binning: field %q: %w", f.Name, err)
		}
	}
	return p, nil
}

// Build runs the frequency-dependent second pass on the prepared
// table: noisy counts, merging, and every row's final code. cfg's
// first-pass fields must be the ones the Prep was built with; its
// merge fields are free.
func (p *Prep) Build(cfg Config, rhoBin float64, seed uint64) (*Encoder, *dataset.Encoded, error) {
	return p.build(cfg, rhoBin, seed, false)
}

// build is Prep.Build; with consume set it writes the final codes over
// the Prep's row indices, which leaves the Prep unusable.
func (p *Prep) build(cfg Config, rhoBin float64, seed uint64, consume bool) (*Encoder, *dataset.Encoded, error) {
	if firstPass(cfg) != p.cfg {
		return nil, nil, fmt.Errorf("binning: the first-pass settings differ from the ones the table was prepared with")
	}
	d := len(p.attrs)
	rhoPer := rhoBin / float64(d)
	enc := &Encoder{cfg: cfg, dicts: slices.Clone(p.dicts), Attrs: make([]Attr, d)}
	encoded := &dataset.Encoded{Names: make([]string, d), Domains: make([]int, d), Cols: make([][]int32, d)}
	for i, f := range p.fields {
		codes := p.attrs[i].idx
		if !consume {
			codes = make([]int32, p.n)
		}
		if err := p.attrs[i].build(&enc.Attrs[i], codes, f, cfg, rhoPer, seed+uint64(i)*7919); err != nil {
			return nil, nil, fmt.Errorf("binning: field %q: %w", f.Name, err)
		}
		encoded.Names[i], encoded.Domains[i], encoded.Cols[i] = f.Name, enc.Attrs[i].Domain(), codes
	}
	return enc, encoded, nil
}

// prepare runs the type-dependent pass for one attribute: the initial
// bins, sorted, their counts, and each row's initial-bin index.
func (a *prepAttr) prepare(values []int64, f dataset.Field, cfg Config) error {
	a.idx = make([]int32, len(values))
	// toInitial maps what the first pass wrote into idx to the initial
	// bin index; nil when it already wrote the index.
	var toInitial []int32
	switch f.Kind {
	case dataset.KindIP, dataset.KindCategorical:
		a.initial, a.counts, toInitial = identityBins(values, a.idx)
	case dataset.KindPort:
		var err error
		if a.initial, a.counts, toInitial, err = portBins(values, a.idx, cfg); err != nil {
			return err
		}
	case dataset.KindNumeric:
		a.initial = logBins(maxValue(values), cfg.LogBinsPerUnit)
		a.counts = countBins(a.initial, values, a.idx)
	case dataset.KindTimestamp:
		mn, mx := minMax(values)
		w := rangeWidth(mn, mx, cfg.TimestampBins)
		a.initial = rangeBins(mn, mx, w)
		a.counts = countRange(len(a.initial), mn, w, values, a.idx)
	default:
		return fmt.Errorf("unknown kind %v", f.Kind)
	}
	if toInitial != nil {
		for r, id := range a.idx {
			a.idx[r] = toInitial[id]
		}
	}
	return nil
}

// build runs the frequency-dependent pass for one attribute into attr
// and writes every row's final code into codes (which may be a.idx
// itself). The noise goes onto a copy of the counts.
func (a *prepAttr) build(attr *Attr, codes []int32, f dataset.Field, cfg Config, rho float64, seed uint64) error {
	// Publish noisy counts with the binning budget; the Gaussian σ
	// also defines the merge threshold.
	gm, err := dp.NewGaussian(1, rho, seed)
	if err != nil {
		return err
	}
	noisy := gm.Perturb(slices.Clone(a.counts))
	threshold := cfg.MergeSigmas * gm.Sigma
	if floor := cfg.MinBinFraction * float64(len(a.idx)); threshold < floor {
		threshold = floor
	}

	*attr = Attr{Field: f, Sigma: gm.Sigma}
	switch f.Kind {
	case dataset.KindCategorical:
		// Categorical attributes with small domains are not binned.
		attr.Bins, attr.NoisyCounts = slices.Clone(a.initial), clampNonNeg(noisy)
	case dataset.KindIP:
		attr.Bins, attr.NoisyCounts = mergeIPBins(a.initial, noisy, threshold, cfg.MaxBinsPerAttr)
	default:
		attr.Bins, attr.NoisyCounts = mergeAdjacent(a.initial, noisy, threshold, cfg.MaxBinsPerAttr)
	}
	attr.buildLookup()

	// Each initial bin's final code is Code of a value in it, which
	// is what Encode assigns every row of the bin: identity bins hold
	// one value, and every other final bin is a union of whole
	// initial bins, so Code is constant over each. It is not "the
	// final bin containing the initial bin": Code's walk-back can
	// miss an IP address's bin among nested group bins, and the
	// encoding must match Code, misses included.
	final := make([]int32, len(a.initial))
	for i, b := range a.initial {
		final[i] = attr.Code(b.Lo)
	}
	for r, i := range a.idx {
		codes[r] = final[i]
	}
	return nil
}

// identityBins returns one bin per distinct value, sorted, with each
// value's count. It writes each row's dedup id (order of first
// appearance) into ids and returns the id → bin index table.
func identityBins(values []int64, ids []int32) ([]Bin, []float64, []int32) {
	seen := make(map[int64]int32)
	var bins []Bin
	var tally []float64
	for r, v := range values {
		id, ok := seen[v]
		if !ok {
			id = int32(len(bins))
			seen[v] = id
			bins = append(bins, Bin{Lo: v, Hi: v})
			tally = append(tally, 0)
		}
		ids[r] = id
		tally[id]++
	}
	return sortInitial(bins, tally)
}

// portBins keeps observed ports below the common-port limit un-binned
// and groups higher ports into fixed-width ranges, counting each bin.
// Like identityBins it writes a per-row id (distinct low ports and
// high groups, in order of first appearance) into ids and returns the
// id → bin index table. A port outside 0–65535 is an error.
func portBins(values []int64, ids []int32, cfg Config) ([]Bin, []float64, []int32, error) {
	limit := int64(cfg.CommonPortLimit)
	w := int64(cfg.PortBinWidth)
	low := make(map[int64]int32)
	high := make(map[int64]int32)
	var bins []Bin
	var tally []float64
	for r, v := range values {
		if v < 0 || v > dataset.MaxPort {
			return nil, nil, nil, fmt.Errorf("port %d outside 0–%d", v, dataset.MaxPort)
		}
		var id int32
		var ok bool
		if v < limit {
			if id, ok = low[v]; !ok {
				id = int32(len(bins))
				low[v] = id
				bins = append(bins, Bin{Lo: v, Hi: v})
			}
		} else {
			g := (v - limit) / w
			if id, ok = high[g]; !ok {
				id = int32(len(bins))
				high[g] = id
				lo := limit + g*w
				// Port numbers must stay below 65536 (§3.4).
				bins = append(bins, Bin{Lo: lo, Hi: min(lo+w-1, dataset.MaxPort)})
			}
		}
		if !ok {
			tally = append(tally, 0)
		}
		ids[r] = id
		tally[id]++
	}
	bins, tally, toBin := sortInitial(bins, tally)
	return bins, tally, toBin, nil
}

// sortInitial sorts initial bins, listed with their counts in order of
// first appearance, by lower bound, and returns the first-appearance
// id → bin index table.
func sortInitial(bins []Bin, counts []float64) ([]Bin, []float64, []int32) {
	order := sortBins(&bins, &counts)
	toBin := make([]int32, len(order))
	for i, id := range order {
		toBin[id] = int32(i)
	}
	return bins, counts, toBin
}

// maxValue returns the largest value, or 0 if none is positive.
func maxValue(values []int64) int64 {
	var maxV int64
	for _, v := range values {
		if v > maxV {
			maxV = v
		}
	}
	return maxV
}

// minMax returns the smallest and largest of a non-empty slice.
func minMax(values []int64) (mn, mx int64) {
	mn, mx = values[0], values[0]
	for _, v := range values {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
}

// logBins bins non-negative numerics up to maxV under log(1+x) with k
// bins per log unit: boundaries at ceil(e^(i/k) − 1). Bin boundaries
// are data-independent; consecutive boundaries that round to the same
// integer are collapsed, so bins are contiguous and non-overlapping.
// The first boundary past the int64 range closes the last bin at
// MaxInt64, so at most about 44·k boundaries are visited.
func logBins(maxV int64, k float64) []Bin {
	var bins []Bin
	lo := int64(0)
	for i := 1; ; i++ {
		f := math.Ceil(math.Expm1(float64(i) / k))
		if !(f < 1<<63) {
			return append(bins, Bin{Lo: lo, Hi: math.MaxInt64})
		}
		next := int64(f)
		if next <= lo {
			continue // empty integer range at this granularity
		}
		bins = append(bins, Bin{Lo: lo, Hi: next - 1})
		if next-1 >= maxV {
			return bins
		}
		lo = next
	}
}

// rangeBins splits [mn, mx] into consecutive bins of width w (the
// last one possibly narrower). Bounds are computed on the unsigned
// offset from mn, so ranges wider than MaxInt64 neither overflow nor
// wrap.
func rangeBins(mn, mx int64, w uint64) []Bin {
	span := uint64(mx) - uint64(mn)
	bins := make([]Bin, 0, span/w+1)
	for off := uint64(0); ; off += w {
		lo := int64(uint64(mn) + off)
		hi := mx
		if w-1 <= span-off {
			hi = int64(uint64(lo) + w - 1)
		}
		bins = append(bins, Bin{Lo: lo, Hi: hi})
		if span-off < w {
			return bins
		}
	}
}

// rangeWidth is the width that splits [mn, mx] into n equal bins:
// ⌊(mx − mn + 1)/n⌋, at least 1, computed without forming mx − mn + 1
// (which overflows for a range of 2^64 values). The split yields
// fewer than 2n bins.
func rangeWidth(mn, mx int64, n int) uint64 {
	if n < 1 {
		n = 1
	}
	span := uint64(mx) - uint64(mn)
	w := span / uint64(n)
	if span%uint64(n) == uint64(n)-1 {
		w++
	}
	return max(w, 1)
}

// countBins writes each value's initial bin into codes — the last bin
// whose lower bound is ≤ v, or bin 0 below the first — and returns the
// bin counts. Bins are sorted and non-overlapping.
func countBins(bins []Bin, values []int64, codes []int32) []float64 {
	counts := make([]float64, len(bins))
	los := make([]int64, len(bins))
	for i, b := range bins {
		los[i] = b.Lo
	}
	for r, v := range values {
		lo, hi := 0, len(los)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if los[mid] > v {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		idx := max(lo-1, 0)
		codes[r] = int32(idx)
		counts[idx]++
	}
	return counts
}

// countRange is countBins for nb consecutive bins of width w from
// mn, where a value's bin is its offset from mn divided by w.
func countRange(nb int, mn int64, w uint64, values []int64, codes []int32) []float64 {
	counts := make([]float64, nb)
	for r, v := range values {
		idx := (uint64(v) - uint64(mn)) / w
		codes[r] = int32(idx)
		counts[idx]++
	}
	return counts
}

func clampNonNeg(xs []float64) []float64 {
	for i, x := range xs {
		if x < 0 {
			xs[i] = 0
		}
	}
	return xs
}

// mergeAdjacent merges consecutive low-count bins until every merged
// bin's noisy count reaches the threshold (or the run ends), then
// enforces the bin cap by repeatedly merging the smallest adjacent
// pair.
func mergeAdjacent(bins []Bin, noisy []float64, threshold float64, maxBins int) ([]Bin, []float64) {
	var outB []Bin
	var outC []float64
	i := 0
	for i < len(bins) {
		b := bins[i]
		c := noisy[i]
		j := i + 1
		for c < threshold && j < len(bins) {
			b.Hi = bins[j].Hi
			c += noisy[j]
			j++
		}
		if c < 0 {
			c = 0
		}
		outB = append(outB, b)
		outC = append(outC, c)
		i = j
	}
	for len(outB) > maxBins && len(outB) > 1 {
		// Merge the adjacent pair with the smallest combined count.
		best, bestC := 0, math.Inf(1)
		for k := 0; k+1 < len(outB); k++ {
			if s := outC[k] + outC[k+1]; s < bestC {
				best, bestC = k, s
			}
		}
		outB[best].Hi = outB[best+1].Hi
		outC[best] += outC[best+1]
		outB = append(outB[:best+1], outB[best+2:]...)
		outC = append(outC[:best+1], outC[best+2:]...)
	}
	return outB, outC
}

// mergeIPBins keeps frequent addresses as singleton bins and groups
// the rest by /30 prefix, widening the prefix (/30 → /26 → /22 → /18
// → /14 → /10) while a group remains under the threshold or the bin
// cap is exceeded.
func mergeIPBins(bins []Bin, noisy []float64, threshold float64, maxBins int) ([]Bin, []float64) {
	type entry struct {
		addr  int64
		count float64
	}
	var keep []entry
	var low []entry // ascending by address, as bins are
	for i, b := range bins {
		if noisy[i] >= threshold {
			keep = append(keep, entry{b.Lo, noisy[i]})
		} else {
			low = append(low, entry{b.Lo, noisy[i]})
		}
	}
	byAddr := func(a, b entry) int { return cmp.Compare(a.addr, b.addr) }
	prefixes := []uint{30, 26, 22, 18, 14, 10}
	var outB []Bin
	var outC []float64
	for p, bits := range prefixes {
		// Replace each pending entry's address by its prefix base. The
		// entries are ascending, so each group is one run: it is summed
		// in address order and the next level's entries come out
		// ascending too, so no sum depends on map iteration order. Only
		// an address outside 32 bits breaks the order; a stable sort
		// restores the runs without reordering a group's members.
		for i := range low {
			low[i].addr = prefixBase(low[i].addr, bits)
		}
		if !slices.IsSortedFunc(low, byAddr) {
			slices.SortStableFunc(low, byAddr)
		}
		// Groups that clear the threshold become final bins; the rest
		// go another round with a wider prefix, unless this is the
		// last level.
		var next []entry
		final := p == len(prefixes)-1
		for i := 0; i < len(low); {
			base := low[i].addr
			c := 0.0
			for ; i < len(low) && low[i].addr == base; i++ {
				c += low[i].count
			}
			if c >= threshold || final {
				outB = append(outB, Bin{Lo: base, Hi: base + int64(1)<<(32-bits) - 1})
				if c < 0 {
					c = 0
				}
				outC = append(outC, c)
			} else {
				next = append(next, entry{base, c})
			}
		}
		low = next
		if len(low) == 0 {
			break
		}
	}
	for _, e := range keep {
		outB = append(outB, Bin{Lo: e.addr, Hi: e.addr})
		outC = append(outC, e.count)
	}
	sortBins(&outB, &outC)
	// Enforce the cap by merging lowest-count neighbours.
	for len(outB) > maxBins && len(outB) > 1 {
		best, bestC := 0, math.Inf(1)
		for k := 0; k+1 < len(outB); k++ {
			if s := outC[k] + outC[k+1]; s < bestC {
				best, bestC = k, s
			}
		}
		outB[best].Hi = outB[best+1].Hi
		outC[best] += outC[best+1]
		outB = append(outB[:best+1], outB[best+2:]...)
		outC = append(outC[:best+1], outC[best+2:]...)
	}
	return outB, outC
}

func prefixBase(addr int64, bits uint) int64 {
	mask := int64(0xFFFFFFFF) << (32 - bits) & 0xFFFFFFFF
	return addr & mask
}

// sortBins sorts bins and their counts together by (Lo, Hi) and
// returns the order: the i-th sorted bin was (*bins)[order[i]].
func sortBins(bins *[]Bin, counts *[]float64) []int {
	idx := make([]int, len(*bins))
	for i := range idx {
		idx[i] = i
	}
	// Lo ties are real: a kept singleton [a, a] and the /30 group
	// bin [a, a+3] share a lower bound. Break them on Hi so the bin
	// order (and with it every downstream code assignment) does not
	// depend on map-iteration order.
	sort.Slice(idx, func(a, b int) bool {
		ba, bb := (*bins)[idx[a]], (*bins)[idx[b]]
		if ba.Lo != bb.Lo {
			return ba.Lo < bb.Lo
		}
		return ba.Hi < bb.Hi
	})
	nb := make([]Bin, len(idx))
	nc := make([]float64, len(idx))
	for i, j := range idx {
		nb[i] = (*bins)[j]
		nc[i] = (*counts)[j]
	}
	*bins, *counts = nb, nc
	return idx
}

// buildLookup prepares the value→code structures.
func (a *Attr) buildLookup() {
	a.los = make([]int64, len(a.Bins))
	for i, b := range a.Bins {
		a.los[i] = b.Lo
	}
	if a.Field.Kind == dataset.KindIP || a.Field.Kind == dataset.KindCategorical || a.Field.Kind == dataset.KindPort {
		a.lookup = make(map[int64]int32)
		for i, b := range a.Bins {
			if b.Lo == b.Hi {
				a.lookup[b.Lo] = int32(i)
			}
		}
	}
}

// Code maps a raw value to its bin code (nearest bin for values that
// fall between bins).
func (a *Attr) Code(v int64) int32 {
	if a.lookup != nil {
		if c, ok := a.lookup[v]; ok {
			return c
		}
	}
	idx := sort.Search(len(a.los), func(i int) bool { return a.los[i] > v }) - 1
	if idx < 0 {
		idx = 0
	}
	// IP range bins can enclose kept singleton bins, so the bin with
	// the largest Lo ≤ v is not necessarily the one containing v:
	// walk back to the nearest containing bin.
	for j := idx; j >= 0 && j > idx-8; j-- {
		if a.Bins[j].Contains(v) {
			return int32(j)
		}
	}
	return int32(idx)
}

// Sample draws a raw value from bin code c: uniform within the bin
// range (the paper's decoding rule for most fields).
func (a *Attr) Sample(rng *rand.Rand, c int32) int64 {
	b := a.Bins[int(c)]
	if b.Lo == b.Hi {
		return b.Lo
	}
	// The width as an unsigned count, so a bin such as [0, MaxInt64]
	// does not overflow; it wraps to 0 only for the full int64 range.
	// Uint64N(n) draws the same stream Int64N(n) does.
	w := uint64(b.Hi) - uint64(b.Lo) + 1
	if w == 0 {
		return int64(rng.Uint64())
	}
	return int64(uint64(b.Lo) + rng.Uint64N(w))
}

// SampleGaussian draws a raw value from bin c under a Gaussian
// centered mid-bin with σ = width/4, clamped to the bin and rounded —
// the paper's tsdiff decoding rule.
func (a *Attr) SampleGaussian(rng *rand.Rand, c int32) int64 {
	b := a.Bins[int(c)]
	if b.Lo == b.Hi {
		return b.Lo
	}
	mid := float64(b.Lo+b.Hi) / 2
	sd := float64(b.Width()) / 4
	v := int64(math.Round(mid + rng.NormFloat64()*sd))
	if v < b.Lo {
		v = b.Lo
	}
	if v > b.Hi {
		v = b.Hi
	}
	return v
}
