package binning

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
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
// keyed differently) and lists naming no column, on both routes of
// clusterRows: binned tables, whose keys pack, and synthetic encodings
// whose keys do not — more than 64 bits of codes and row index, or
// more than 8 group columns.
func TestDecodeMatchesMapClustering(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 21))
	check := func(trial int, enc *Encoder, encoded *dataset.Encoded, opts DecodeOptions) {
		t.Helper()
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
	// packs reports whether clusterRows takes the packed route for the
	// named columns.
	packs := func(encoded *dataset.Encoded, names []string) bool {
		var cols [][]int32
		var domains []int
		for _, name := range names {
			if i := encoded.Index(name); i >= 0 {
				cols = append(cols, encoded.Cols[i])
				domains = append(domains, encoded.Domains[i])
			}
		}
		return packedClusters(cols, domains, encoded.NumRows()) != nil
	}
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
		if !packs(encoded, opts.GroupBy) {
			t.Fatalf("trial %d: binned keys of %v do not pack", trial, opts.GroupBy)
		}
		check(trial, enc, encoded, opts)
	}
	for trial, tc := range []struct {
		domains []int // one per group column
		packs   bool
	}{
		{[]int{5, 300, 2, 70}, true},
		{[]int{1, 1, 7}, true},
		{[]int{256, 256, 256, 256, 256, 256, 256, 256}, false}, // 64 code bits + row bits
		{[]int{3, 2, 4, 2, 5, 2, 3, 2, 6}, false},              // 9 group columns
		{[]int{2, 2, 2, 2, 2, 2, 2, 2, 2, 2}, false},           // 10, the last two beyond the key
	} {
		enc, encoded, names := groupedEncoding(rng, tc.domains, 100+rng.IntN(500))
		if got := packs(encoded, names); got != tc.packs {
			t.Fatalf("domains %v: packed route %v, want %v", tc.domains, got, tc.packs)
		}
		opts := DecodeOptions{Seed: uint64(trial), GroupBy: names, TSField: "ts", TSDiffField: "tsdiff"}
		check(100+trial, enc, encoded, opts)
		opts.GroupBy = append([]string{names[len(names)-1]}, names[:len(names)-1]...)
		check(200+trial, enc, encoded, opts)
	}
}

// groupedEncoding builds an encoder and an encoded table of n rows:
// one group column per domain (named g0, g1, ...), then ts and tsdiff.
// The group codes repeat a few dozen keys, so clusters hold many rows.
func groupedEncoding(rng *rand.Rand, domains []int, n int) (*Encoder, *dataset.Encoded, []string) {
	var names []string
	var attrs []Attr
	var encDomains []int
	for j, d := range domains {
		name := fmt.Sprintf("g%d", j)
		bins := make([]Bin, d)
		for i := range bins {
			bins[i] = Bin{Lo: int64(4 * i), Hi: int64(4*i + 3)}
		}
		names = append(names, name)
		attrs = append(attrs, Attr{Field: dataset.Field{Name: name, Kind: dataset.KindNumeric}, Bins: bins})
		encDomains = append(encDomains, d)
	}
	attrs = append(attrs,
		Attr{Field: dataset.Field{Name: "ts", Kind: dataset.KindTimestamp}, Bins: []Bin{{0, 99}, {100, 199}, {200, 299}}},
		Attr{Field: dataset.Field{Name: "tsdiff", Kind: dataset.KindNumeric}, Bins: []Bin{{0, 0}, {1, 9}, {10, 99}}})
	encDomains = append(encDomains, 3, 3)
	allNames := append(slices.Clone(names), "ts", "tsdiff")
	encoded := dataset.NewEncoded(allNames, encDomains, n)
	keys := make([][]int32, 1+rng.IntN(40))
	for k := range keys {
		keys[k] = make([]int32, len(domains))
		for j, d := range domains {
			keys[k][j] = int32(rng.IntN(d))
		}
	}
	for r := 0; r < n; r++ {
		key := keys[rng.IntN(len(keys))]
		for j := range domains {
			encoded.Cols[j][r] = key[j]
		}
		encoded.Cols[len(domains)][r] = int32(rng.IntN(3))
		encoded.Cols[len(domains)+1][r] = int32(rng.IntN(3))
	}
	return &Encoder{Attrs: attrs, dicts: make([]*dataset.Dict, len(attrs))}, encoded, names
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

// mergeIPBinsMap is mergeIPBins grouping through a map of prefix
// bases, as it once did: the oracle for which addresses share a bin.
// Its sums depend on map order, so compare it on integral counts.
func mergeIPBinsMap(bins []Bin, noisy []float64, threshold float64, maxBins int) ([]Bin, []float64) {
	var keep, low []Bin
	var keepC, lowC []float64
	for i, b := range bins {
		if noisy[i] >= threshold {
			keep, keepC = append(keep, b), append(keepC, noisy[i])
		} else {
			low, lowC = append(low, b), append(lowC, noisy[i])
		}
	}
	var outB []Bin
	var outC []float64
	prefixes := []uint{30, 26, 22, 18, 14, 10}
	for p, bits := range prefixes {
		groups := make(map[int64]float64)
		for i, b := range low {
			groups[prefixBase(b.Lo, bits)] += lowC[i]
		}
		low, lowC = nil, nil
		for base, c := range groups {
			if c >= threshold || p == len(prefixes)-1 {
				outB, outC = append(outB, Bin{Lo: base, Hi: base + int64(1)<<(32-bits) - 1}), append(outC, max(c, 0))
			} else {
				low, lowC = append(low, Bin{Lo: base, Hi: base}), append(lowC, c)
			}
		}
		if len(low) == 0 {
			break
		}
	}
	outB, outC = append(outB, keep...), append(outC, keepC...)
	sortBins(&outB, &outC)
	for len(outB) > maxBins && len(outB) > 1 {
		best, bestC := 0, outC[0]+outC[1]
		for k := 1; k+1 < len(outB); k++ {
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

// TestMergeIPBinsMatchesMapGrouping: grouping each prefix level's
// pending addresses as runs gives the bins the map of prefix bases
// gave, also for addresses outside 32 bits (a programmatic table can
// hold them), whose bases do not follow address order.
func TestMergeIPBinsMatchesMapGrouping(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 30))
	for trial := 0; trial < 200; trial++ {
		seen := make(map[int64]bool)
		var bins []Bin
		for len(bins) < 1+rng.IntN(200) {
			a := int64(0x0A000000) + rng.Int64N(1<<(4+rng.IntN(20)))
			switch rng.IntN(8) {
			case 0:
				a = -a
			case 1:
				a += 1 << 32
			}
			if !seen[a] {
				seen[a] = true
				bins = append(bins, Bin{Lo: a, Hi: a})
			}
		}
		slices.SortFunc(bins, func(x, y Bin) int { return cmp.Compare(x.Lo, y.Lo) })
		noisy := make([]float64, len(bins))
		for i := range noisy {
			noisy[i] = float64(rng.IntN(12) - 3)
		}
		threshold := float64(2 + rng.IntN(30))
		maxBins := 1 + rng.IntN(300)
		gotB, gotC := mergeIPBins(bins, noisy, threshold, maxBins)
		wantB, wantC := mergeIPBinsMap(bins, noisy, threshold, maxBins)
		if !slices.Equal(gotB, wantB) || !slices.Equal(gotC, wantC) {
			t.Fatalf("trial %d: bins %v counts %v, map grouping %v %v", trial, gotB, gotC, wantB, wantC)
		}
	}
}
