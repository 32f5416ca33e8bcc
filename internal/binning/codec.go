package binning

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sort"

	"github.com/netdpsyn/netdpsyn/internal/dataset"
)

// Encode maps the table to its binned form. The table must have the
// same schema the encoder was built from. Build already returns the
// encoding of the table it binned; Encode is for other tables in the
// same space.
func (e *Encoder) Encode(t *dataset.Table) (*dataset.Encoded, error) {
	if t.NumCols() != len(e.Attrs) {
		return nil, fmt.Errorf("binning: table has %d columns, encoder has %d attrs", t.NumCols(), len(e.Attrs))
	}
	names := make([]string, len(e.Attrs))
	domains := make([]int, len(e.Attrs))
	for i := range e.Attrs {
		names[i] = e.Attrs[i].Field.Name
		domains[i] = e.Attrs[i].Domain()
	}
	enc := dataset.NewEncoded(names, domains, t.NumRows())
	for c := range e.Attrs {
		col := t.Column(c)
		dst := enc.Cols[c]
		attr := &e.Attrs[c]
		for r, v := range col {
			dst[r] = attr.Code(v)
		}
	}
	return enc, nil
}

// GreaterEq is a decode-time consistency constraint: column A's raw
// value must be at least column B's (e.g. byt ≥ pkt: a packet has at
// least one byte — §3.3 of the paper).
type GreaterEq struct {
	A, B string
}

// DecodeOptions configures decoding of a synthesized encoded table
// back to raw trace records.
type DecodeOptions struct {
	// Seed drives the in-bin sampling.
	Seed uint64
	// GroupBy names the identifier attributes used to cluster rows
	// for timestamp reconstruction (the IP 5-tuple in the paper).
	GroupBy []string
	// TSField and TSDiffField name the timestamp attribute and its
	// auxiliary difference attribute. Either may be absent.
	TSField, TSDiffField string
	// DropAux removes the tsdiff attribute from the decoded output.
	DropAux bool
	// Constraints are enforced per record after sampling.
	Constraints []GreaterEq
}

// Decode converts a (typically synthesized) encoded table back into a
// raw trace table: uniform sampling within bins for most fields,
// Gaussian sampling for tsdiff, per-record constraint repair, and
// timestamp reconstruction by clustering encoded rows on the
// identifier and accumulating tsdiff values onto the bin starts.
func (e *Encoder) Decode(enc *dataset.Encoded, opts DecodeOptions) (*dataset.Table, error) {
	if len(enc.Cols) != len(e.Attrs) {
		return nil, fmt.Errorf("binning: encoded has %d attrs, encoder has %d", len(enc.Cols), len(e.Attrs))
	}
	rng := rand.New(rand.NewPCG(opts.Seed, opts.Seed^0x5bf03635))
	n := enc.NumRows()

	tsIdx := enc.Index(opts.TSField)
	diffIdx := enc.Index(opts.TSDiffField)
	// tsGroup keys timestamp clusters in GroupBy order; group is the
	// same columns in index order, each once, for the identifiers.
	var tsGroup []int
	for _, name := range opts.GroupBy {
		if i := enc.Index(name); i >= 0 {
			tsGroup = append(tsGroup, i)
		}
	}
	group := slices.Clone(tsGroup)
	slices.Sort(group)
	group = slices.Compact(group)

	// Sample every non-timestamp, non-identifier column independently.
	raw := make([][]int64, len(e.Attrs))
	for c := range e.Attrs {
		raw[c] = make([]int64, n)
		if c == tsIdx && diffIdx >= 0 {
			continue // reconstructed below
		}
		if slices.Contains(group, c) {
			continue // decoded cluster-consistently below
		}
		attr := &e.Attrs[c]
		gaussian := c == diffIdx
		for r := 0; r < n; r++ {
			if gaussian {
				raw[c][r] = attr.SampleGaussian(rng, enc.Cols[c][r])
			} else {
				raw[c][r] = attr.Sample(rng, enc.Cols[c][r])
			}
		}
	}

	// Identifier columns (the 5-tuple) are decoded once per encoded
	// cluster: records synthesized into the same encoded flow stay
	// one flow after decoding. Independent per-record sampling would
	// scatter a flow's packets across the bin's address range and
	// destroy the flow-level structure (NetML representations, flow
	// sizes, tsdiff groups).
	var cl *clusters
	if len(group) > 0 {
		cl = clusterRows(enc, group)
		e.decodeClustered(enc, raw, group, cl, rng)
	}

	// Timestamp reconstruction from tsdiff (§3.4): cluster encoded
	// rows by identifier, order each cluster by timestamp bin, anchor
	// the first record uniformly in its bin, then accumulate tsdiff.
	// The identifier clusters serve unless GroupBy lists the columns
	// in another order (or twice), which orders the clusters
	// differently.
	if tsIdx >= 0 {
		if diffIdx >= 0 && len(opts.GroupBy) > 0 {
			if cl == nil || !slices.Equal(tsGroup, group) {
				cl = clusterRows(enc, tsGroup)
			}
			e.reconstructTS(enc, raw, tsIdx, diffIdx, cl, rng)
		} else {
			attr := &e.Attrs[tsIdx]
			for r := 0; r < n; r++ {
				raw[tsIdx][r] = attr.Sample(rng, enc.Cols[tsIdx][r])
			}
		}
	}

	// Constraint repair.
	for _, c := range opts.Constraints {
		ai, bi := enc.Index(c.A), enc.Index(c.B)
		if ai < 0 || bi < 0 {
			continue
		}
		for r := 0; r < n; r++ {
			if raw[ai][r] < raw[bi][r] {
				raw[ai][r] = raw[bi][r]
			}
		}
	}

	// Assemble the output table from the sampled columns, optionally
	// dropping the aux field.
	fields := make([]dataset.Field, 0, len(e.Attrs))
	cols := make([][]int64, 0, len(e.Attrs))
	dicts := make([]*dataset.Dict, 0, len(e.Attrs))
	for c := range e.Attrs {
		if opts.DropAux && c == diffIdx {
			continue
		}
		fields = append(fields, e.Attrs[c].Field)
		cols = append(cols, raw[c])
		dicts = append(dicts, e.dicts[c])
	}
	schema, err := dataset.NewSchema(fields...)
	if err != nil {
		return nil, err
	}
	out, err := dataset.NewTableFromColumns(schema, cols)
	if err != nil {
		return nil, err
	}
	// Copy categorical dictionaries so string values round-trip.
	for j, d := range dicts {
		if d != nil {
			out.SetDict(j, d.Clone())
		}
	}
	return out, nil
}

// clusters is the grouping of an encoded table's rows by their codes
// in a list of columns, for decoding: cluster i is
// rows[start[i]:start[i+1]], its rows ascending, and the clusters are
// in ascending key order.
type clusters struct {
	rows, start []int
}

// len returns the number of clusters.
func (cl *clusters) len() int { return len(cl.start) - 1 }

// run returns the rows of the i-th cluster.
func (cl *clusters) run(i int) []int { return cl.rows[cl.start[i]:cl.start[i+1]] }

// clusterRows groups enc's rows by their codes in the given columns
// (the first 8 of them form the key) and orders the groups by key:
// by sorting one packed key per row when the codes allow it, else
// through groupRows.
func clusterRows(enc *dataset.Encoded, group []int) *clusters {
	cols := make([][]int32, 0, len(group))
	domains := make([]int, 0, len(group))
	for _, g := range group {
		cols = append(cols, enc.Cols[g])
		domains = append(domains, enc.Domains[g])
	}
	if cl := packedClusters(cols, domains, enc.NumRows()); cl != nil {
		return cl
	}
	return mapClusters(cols, enc.NumRows())
}

// packedClusters clusters n rows by their codes in cols by sorting
// one uint64 per row: the codes, each in the bits its domain needs,
// then the row index. A sorted run of equal keys is one cluster with
// its rows ascending, and since codes are non-negative the unsigned
// key order is the lexicographic order of the codes. It returns nil
// when the rows do not pack: more than 8 columns (groupRows keys on
// the first 8 only), more than 64 bits of codes and row index, or a
// code outside [0, domain).
func packedClusters(cols [][]int32, domains []int, n int) *clusters {
	if len(cols) > 8 {
		return nil
	}
	widths := make([]uint, len(cols))
	total := uint(bits.Len(uint(n)))
	rowBits := total
	for j, d := range domains {
		if d < 1 {
			return nil
		}
		widths[j] = uint(bits.Len(uint(d - 1)))
		total += widths[j]
	}
	if total > 64 {
		return nil
	}
	keys := make([]uint64, n)
	for r := range keys {
		var k uint64
		for j, col := range cols {
			c := col[r]
			if c < 0 || int(c) >= domains[j] {
				return nil
			}
			k = k<<widths[j] | uint64(c)
		}
		keys[r] = k<<rowBits | uint64(r)
	}
	slices.Sort(keys)
	rowMask := uint64(1)<<rowBits - 1
	cl := &clusters{rows: make([]int, n), start: make([]int, 0, n+1)}
	for i, k := range keys {
		if i == 0 || k>>rowBits != keys[i-1]>>rowBits {
			cl.start = append(cl.start, i)
		}
		cl.rows[i] = int(k & rowMask)
	}
	cl.start = append(cl.start, n)
	return cl
}

// mapClusters is clusterRows through groupRows: rows grouped by a map
// of keys in order of first appearance, then laid out in key order.
func mapClusters(cols [][]int32, n int) *clusters {
	rows, start, keys := groupRows(cols, n)
	order := make([]int32, len(keys))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return slices.Compare(keys[a][:], keys[b][:]) })
	cl := &clusters{rows: make([]int, 0, n), start: make([]int, 0, len(keys)+1)}
	for _, k := range order {
		cl.start = append(cl.start, len(cl.rows))
		cl.rows = append(cl.rows, rows[start[k]:start[k+1]]...)
	}
	cl.start = append(cl.start, len(cl.rows))
	return cl
}

// groupRows groups n rows by their values in cols (the first 8
// columns form the key; rows with equal keys share a group). rows
// holds each group's row indices as one contiguous ascending run,
// groups in order of first appearance: group k is
// rows[start[k]:start[k+1]], with key keys[k].
func groupRows[T int32 | int64](cols [][]T, n int) (rows, start []int, keys [][8]T) {
	cols = cols[:min(len(cols), 8)]
	ids := make(map[[8]T]int32)
	gid := make([]int32, n)
	var sizes []int
	for r := 0; r < n; r++ {
		var k [8]T
		for j, col := range cols {
			k[j] = col[r]
		}
		id, ok := ids[k]
		if !ok {
			id = int32(len(keys))
			ids[k] = id
			keys = append(keys, k)
			sizes = append(sizes, 0)
		}
		gid[r] = id
		sizes[id]++
	}
	start = make([]int, len(keys)+1)
	for k, size := range sizes {
		start[k+1] = start[k] + size
	}
	next := sizes // reused as each group's write cursor
	copy(next, start)
	rows = make([]int, n)
	for r, id := range gid {
		rows[next[id]] = r
		next[id]++
	}
	return rows, start, keys
}

// decodeClustered samples the identifier attributes once per encoded
// cluster, in key order, and assigns the values to every member row.
func (e *Encoder) decodeClustered(enc *dataset.Encoded, raw [][]int64, group []int, cl *clusters, rng *rand.Rand) {
	for i := range cl.len() {
		rows := cl.run(i)
		for _, g := range group {
			attr := &e.Attrs[g]
			v := attr.Sample(rng, enc.Cols[g][rows[0]])
			for _, r := range rows {
				raw[g][r] = v
			}
		}
	}
}

// reconstructTS rebuilds raw timestamps from tsdiff per identifier
// cluster, in key order: the sampling RNG is shared, so the order is
// part of the output.
func (e *Encoder) reconstructTS(enc *dataset.Encoded, raw [][]int64, tsIdx, diffIdx int, cl *clusters, rng *rand.Rand) {
	tsAttr := &e.Attrs[tsIdx]
	codes := enc.Cols[tsIdx]
	for i := range cl.len() {
		rows := cl.run(i)
		if len(rows) > 1 {
			// sort.Slice is not stable: which of a cluster's tied rows
			// comes first depends on its algorithm and on the rows
			// arriving in ascending order, and the output with it.
			sort.Slice(rows, func(a, b int) bool { return codes[rows[a]] < codes[rows[b]] })
		}
		first := rows[0]
		cur := tsAttr.Sample(rng, codes[first])
		raw[tsIdx][first] = cur
		for _, r := range rows[1:] {
			d := raw[diffIdx][r]
			if d < 0 {
				d = 0
			}
			cur += d
			raw[tsIdx][r] = cur
		}
	}
}

// AddTSDiff augments a table with the auxiliary tsdiff attribute
// (§3.2): rows are clustered by the identifier columns, ordered by
// timestamp within each cluster, and tsdiff is the difference to the
// previous record of the same cluster (0 for the first).
func AddTSDiff(t *dataset.Table, tsField, diffField string, groupBy []string) (*dataset.Table, error) {
	s := t.Schema()
	tsCol := s.Index(tsField)
	if tsCol < 0 {
		return nil, fmt.Errorf("binning: no timestamp field %q", tsField)
	}
	var cols [][]int64
	for _, name := range groupBy {
		if i := s.Index(name); i >= 0 {
			cols = append(cols, t.Column(i))
		}
	}
	ts := t.Column(tsCol)
	rows, start, _ := groupRows(cols, len(ts))
	// A cluster's rows arrive in ascending order, so in a ts-sorted
	// table they are already in timestamp order. Otherwise each
	// cluster is sorted the way it always was: sort.Slice orders tied
	// timestamps by its own rule, and the first of a tie takes the
	// gap to the previous timestamp.
	sorted := slices.IsSorted(ts)
	diff := make([]int64, len(ts))
	for k := 0; k+1 < len(start); k++ {
		run := rows[start[k]:start[k+1]]
		if !sorted && len(run) > 1 {
			sort.Slice(run, func(a, b int) bool { return ts[run[a]] < ts[run[b]] })
		}
		for i := 1; i < len(run); i++ {
			d := ts[run[i]] - ts[run[i-1]]
			if d < 0 {
				d = 0 // int64 overflow on extreme timestamps
			}
			diff[run[i]] = d
		}
	}
	return t.WithColumn(dataset.Field{Name: diffField, Kind: dataset.KindNumeric}, diff)
}
