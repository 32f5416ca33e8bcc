package binning

import (
	"math/rand/v2"
	"sort"
	"testing"

	"github.com/netdpsyn/netdpsyn/internal/dataset"
)

// addTSDiffPerTuple is AddTSDiff as a map of per-tuple row slices,
// each sorted with sort.Slice: the oracle AddTSDiff must match.
func addTSDiffPerTuple(t *dataset.Table, tsCol int, group []int) []int64 {
	clusters := make(map[[8]int64][]int)
	for r := 0; r < t.NumRows(); r++ {
		var k [8]int64
		for j, g := range group {
			if j < len(k) {
				k[j] = t.Value(r, g)
			}
		}
		clusters[k] = append(clusters[k], r)
	}
	ts := t.Column(tsCol)
	diff := make([]int64, t.NumRows())
	for _, rows := range clusters {
		sort.Slice(rows, func(a, b int) bool { return ts[rows[a]] < ts[rows[b]] })
		for i := 1; i < len(rows); i++ {
			diff[rows[i]] = max(ts[rows[i]]-ts[rows[i-1]], 0)
		}
	}
	return diff
}

// oracleSchema has a 3-field identifier, a timestamp and a payload.
var oracleSchema = dataset.MustSchema(
	dataset.Field{Name: "srcip", Kind: dataset.KindIP},
	dataset.Field{Name: "dstip", Kind: dataset.KindIP},
	dataset.Field{Name: "ts", Kind: dataset.KindTimestamp},
	dataset.Field{Name: "srcport", Kind: dataset.KindPort},
	dataset.Field{Name: "byt", Kind: dataset.KindNumeric},
)

// tiedTable draws rows from a few identifiers with few distinct
// timestamps, so clusters are long (sort.Slice leaves insertion sort
// past 12 rows) and full of ties; sorted orders the rows by ts.
func tiedTable(rng *rand.Rand, rows int, sorted bool) *dataset.Table {
	tab := dataset.NewTable(oracleSchema, rows)
	for r := 0; r < rows; r++ {
		tab.AppendRow([]int64{
			int64(rng.IntN(3)), int64(rng.IntN(2)), int64(rng.IntN(8)) * 100,
			int64(rng.IntN(70000)) % 65536, int64(rng.IntN(5000)),
		})
	}
	if sorted {
		tab = tab.SortBy(2)
	}
	return tab
}

// TestAddTSDiffMatchesPerTupleSort: on an unsorted timestamp column
// the first of a tie takes the gap to the previous timestamp, and
// which row that is depends on sort.Slice's permutation, so AddTSDiff
// must sort each cluster exactly as the per-tuple slices did.
func TestAddTSDiffMatchesPerTupleSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 13))
	for trial := 0; trial < 60; trial++ {
		tab := tiedTable(rng, 1+rng.IntN(300), trial%3 == 0)
		groups := [][]string{{"srcip", "dstip"}, {"dstip", "srcip", "srcip"}, {"ghost"}, nil}
		names := groups[trial%len(groups)]
		var group []int
		for _, name := range names {
			if i := oracleSchema.Index(name); i >= 0 {
				group = append(group, i)
			}
		}
		out, err := AddTSDiff(tab, "ts", "tsdiff", names)
		if err != nil {
			t.Fatal(err)
		}
		got, want := out.ColumnByName("tsdiff"), addTSDiffPerTuple(tab, 2, group)
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("trial %d (group %v): row %d tsdiff %d, per-tuple sort %d", trial, names, r, got[r], want[r])
			}
		}
	}
}

// TestDecodeMatchesMapClustering checks Decode against the
// per-call map clustering it replaced, including GroupBy lists whose
// order differs from index order (the timestamp clusters are then
// keyed differently) and lists naming no column.
func TestDecodeMatchesMapClustering(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 21))
	for trial := 0; trial < 24; trial++ {
		raw := tiedTable(rng, 50+rng.IntN(400), trial%2 == 0)
		aug, err := AddTSDiff(raw, "ts", "tsdiff", []string{"srcip", "dstip"})
		if err != nil {
			t.Fatal(err)
		}
		enc, encoded, err := Build(aug, DefaultConfig(), 0.5, uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		groups := [][]string{{"srcip", "dstip", "srcport"}, {"srcport", "srcip"}, {"dstip", "dstip"}, {"ghost"}, nil}
		opts := DecodeOptions{
			Seed:        uint64(trial),
			GroupBy:     groups[trial%len(groups)],
			TSField:     "ts",
			TSDiffField: "tsdiff",
			DropAux:     trial%2 == 1,
			Constraints: []GreaterEq{{A: "byt", B: "srcport"}},
		}
		got, err := enc.Decode(encoded, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := decodeWithMaps(enc, encoded, opts)
		if got.NumCols() != len(want) {
			t.Fatalf("trial %d: %d columns, oracle %d", trial, got.NumCols(), len(want))
		}
		for c := range want {
			for r, v := range want[c] {
				if g := got.Column(c)[r]; g != v {
					t.Fatalf("trial %d (GroupBy %v): column %d row %d = %d, oracle %d", trial, opts.GroupBy, c, r, g, v)
				}
			}
		}
	}
}

// decodeWithMaps is Decode's sampling with clusters built by a
// map of row slices per call, returning the output columns.
func decodeWithMaps(e *Encoder, enc *dataset.Encoded, opts DecodeOptions) [][]int64 {
	rng := rand.New(rand.NewPCG(opts.Seed, opts.Seed^0x5bf03635))
	n := enc.NumRows()
	tsIdx, diffIdx := enc.Index(opts.TSField), enc.Index(opts.TSDiffField)
	groupIdx := make(map[int]bool)
	var tsGroup []int
	for _, name := range opts.GroupBy {
		if i := enc.Index(name); i >= 0 {
			groupIdx[i] = true
			tsGroup = append(tsGroup, i)
		}
	}
	var group []int
	for i := range groupIdx {
		group = append(group, i)
	}
	sort.Ints(group)
	clusterKeys := func(cols []int) ([][8]int32, map[[8]int32][]int) {
		clusters := make(map[[8]int32][]int)
		var keys [][8]int32
		for r := 0; r < n; r++ {
			var k [8]int32
			for j, g := range cols {
				if j < len(k) {
					k[j] = enc.Cols[g][r]
				}
			}
			if _, seen := clusters[k]; !seen {
				keys = append(keys, k)
			}
			clusters[k] = append(clusters[k], r)
		}
		sort.Slice(keys, func(a, b int) bool { return less8(keys[a], keys[b]) })
		return keys, clusters
	}
	raw := make([][]int64, len(e.Attrs))
	for c := range e.Attrs {
		raw[c] = make([]int64, n)
		if (c == tsIdx && diffIdx >= 0) || groupIdx[c] {
			continue
		}
		for r := 0; r < n; r++ {
			if c == diffIdx {
				raw[c][r] = e.Attrs[c].SampleGaussian(rng, enc.Cols[c][r])
			} else {
				raw[c][r] = e.Attrs[c].Sample(rng, enc.Cols[c][r])
			}
		}
	}
	if len(group) > 0 {
		keys, clusters := clusterKeys(group)
		for _, k := range keys {
			rows := clusters[k]
			for _, g := range group {
				v := e.Attrs[g].Sample(rng, enc.Cols[g][rows[0]])
				for _, r := range rows {
					raw[g][r] = v
				}
			}
		}
	}
	if tsIdx >= 0 {
		if diffIdx >= 0 && len(opts.GroupBy) > 0 {
			keys, clusters := clusterKeys(tsGroup)
			for _, k := range keys {
				rows := clusters[k]
				sort.Slice(rows, func(a, b int) bool { return enc.Cols[tsIdx][rows[a]] < enc.Cols[tsIdx][rows[b]] })
				cur := e.Attrs[tsIdx].Sample(rng, enc.Cols[tsIdx][rows[0]])
				raw[tsIdx][rows[0]] = cur
				for _, r := range rows[1:] {
					cur += max(raw[diffIdx][r], 0)
					raw[tsIdx][r] = cur
				}
			}
		} else {
			for r := 0; r < n; r++ {
				raw[tsIdx][r] = e.Attrs[tsIdx].Sample(rng, enc.Cols[tsIdx][r])
			}
		}
	}
	for _, c := range opts.Constraints {
		ai, bi := enc.Index(c.A), enc.Index(c.B)
		if ai < 0 || bi < 0 {
			continue
		}
		for r := 0; r < n; r++ {
			raw[ai][r] = max(raw[ai][r], raw[bi][r])
		}
	}
	var out [][]int64
	for c := range e.Attrs {
		if !(opts.DropAux && c == diffIdx) {
			out = append(out, raw[c])
		}
	}
	return out
}

func less8(a, b [8]int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
