package binning

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/netdpsyn/netdpsyn/internal/datagen"
	"github.com/netdpsyn/netdpsyn/internal/dataset"
	"github.com/netdpsyn/netdpsyn/internal/trace"
)

func smallFlowTable(t *testing.T, rows int) *dataset.Table {
	t.Helper()
	tab, err := datagen.Generate(datagen.TON, datagen.Config{Rows: rows, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestBuildEncodeRoundTrip(t *testing.T) {
	tab := smallFlowTable(t, 1200)
	enc, encoded, err := Build(tab, DefaultConfig(), 0.05, 17)
	if err != nil {
		t.Fatal(err)
	}
	if err := encoded.Validate(); err != nil {
		t.Fatalf("encoded invalid: %v", err)
	}
	if encoded.NumRows() != tab.NumRows() {
		t.Fatalf("rows = %d, want %d", encoded.NumRows(), tab.NumRows())
	}
	// Every raw value must encode into a bin containing (or near) it;
	// for identity-kind attributes it must be exact.
	for c, attr := range enc.Attrs {
		if attr.Field.Kind != dataset.KindCategorical {
			continue
		}
		col := tab.Column(c)
		for r, v := range col {
			b := attr.Bins[encoded.Cols[c][r]]
			if !b.Contains(v) {
				t.Fatalf("categorical %q row %d: value %d not in bin [%d,%d]",
					attr.Field.Name, r, v, b.Lo, b.Hi)
			}
		}
	}
}

func TestBuildEmptyTable(t *testing.T) {
	s := dataset.MustSchema(dataset.Field{Name: "x", Kind: dataset.KindNumeric})
	if _, _, err := Build(dataset.NewTable(s, 0), DefaultConfig(), 0.1, 1); err == nil {
		t.Fatal("empty table must error")
	}
}

func TestBuildRejectsBadConfig(t *testing.T) {
	tab := smallFlowTable(t, 50)
	for _, edit := range []func(*Config){
		func(c *Config) { c.LogBinsPerUnit = 0 },
		func(c *Config) { c.LogBinsPerUnit = -3 },
		func(c *Config) { c.LogBinsPerUnit = math.Inf(1) },
		func(c *Config) { c.LogBinsPerUnit = math.NaN() },
		func(c *Config) { c.PortBinWidth = 0 },
	} {
		cfg := DefaultConfig()
		edit(&cfg)
		if _, _, err := Build(tab, cfg, 0.1, 1); err == nil {
			t.Errorf("config %+v: Build must error", cfg)
		}
	}
}

func TestDecodeSamplesWithinBins(t *testing.T) {
	tab := smallFlowTable(t, 800)
	enc, encoded, err := Build(tab, DefaultConfig(), 0.05, 19)
	if err != nil {
		t.Fatal(err)
	}
	out, err := enc.Decode(encoded, DecodeOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != tab.NumRows() {
		t.Fatalf("decode rows = %d", out.NumRows())
	}
	// Decoded values must lie within the bin of the code they came
	// from (except reconstructed timestamps, which are untested here
	// since no tsdiff was configured: plain sampling keeps the bin).
	for c, attr := range enc.Attrs {
		col := out.ColumnByName(attr.Field.Name)
		for r, v := range col {
			b := attr.Bins[encoded.Cols[c][r]]
			if !b.Contains(v) {
				t.Fatalf("%s row %d: decoded %d outside bin [%d,%d]", attr.Field.Name, r, v, b.Lo, b.Hi)
			}
		}
	}
}

func TestDecodeConstraint(t *testing.T) {
	tab := smallFlowTable(t, 800)
	enc, encoded, err := Build(tab, DefaultConfig(), 0.05, 23)
	if err != nil {
		t.Fatal(err)
	}
	out, err := enc.Decode(encoded, DecodeOptions{
		Seed:        5,
		Constraints: []GreaterEq{{A: trace.FieldByt, B: trace.FieldPkt}},
	})
	if err != nil {
		t.Fatal(err)
	}
	byt, pkt := out.ColumnByName(trace.FieldByt), out.ColumnByName(trace.FieldPkt)
	for i := range byt {
		if byt[i] < pkt[i] {
			t.Fatalf("row %d violates byt >= pkt: %d < %d", i, byt[i], pkt[i])
		}
	}
}

func TestPortBinsRespectLimit(t *testing.T) {
	values := []int64{22, 53, 80, 1024, 1033, 5000, 65535}
	bins, _, _, err := portBins(values, make([]int32, len(values)), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bins {
		if b.Hi > 65535 {
			t.Fatalf("port bin exceeds 65535: %+v", b)
		}
		if b.Lo < 1024 && b.Lo != b.Hi {
			t.Fatalf("common port binned: %+v", b)
		}
	}
	// 1024 and 1033 fall in the same width-10 bin.
	var found bool
	for _, b := range bins {
		if b.Contains(1024) && b.Contains(1033) {
			found = true
		}
	}
	if !found {
		t.Error("1024 and 1033 should share a width-10 bin")
	}
}

func TestLogBinsContiguousMonotone(t *testing.T) {
	bins := logBins(10_000_000, 3)
	if bins[0].Lo != 0 {
		t.Fatalf("first bin should start at 0: %+v", bins[0])
	}
	for i := 1; i < len(bins); i++ {
		if bins[i].Lo != bins[i-1].Hi+1 {
			t.Fatalf("bins not contiguous at %d: %+v then %+v", i, bins[i-1], bins[i])
		}
	}
	if last := bins[len(bins)-1]; last.Hi < 10_000_000 {
		t.Fatalf("bins must cover the max value: %+v", last)
	}
	// Log binning yields far fewer bins than linear would.
	if len(bins) > 60 {
		t.Fatalf("too many log bins: %d", len(bins))
	}
}

func TestLogBinsCoverageProperty(t *testing.T) {
	f := func(raw uint32) bool {
		v := int64(raw % 10_000_000)
		bins := logBins(v, 3)
		// Some bin must contain v.
		for _, b := range bins {
			if b.Contains(v) {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMergeAdjacentThreshold(t *testing.T) {
	bins := []Bin{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
	noisy := []float64{100, 1, 1, 100}
	outB, outC := mergeAdjacent(bins, noisy, 50, 100)
	// The two middle low-count bins merge (possibly with a neighbour).
	if len(outB) >= 4 {
		t.Fatalf("no merging happened: %v", outB)
	}
	var total float64
	for _, c := range outC {
		total += c
	}
	if total < 200 {
		t.Errorf("counts lost in merge: %v", outC)
	}
}

func TestMergeAdjacentCap(t *testing.T) {
	var bins []Bin
	var noisy []float64
	for i := 0; i < 100; i++ {
		bins = append(bins, Bin{int64(i), int64(i)})
		noisy = append(noisy, 1000) // all above threshold
	}
	outB, _ := mergeAdjacent(bins, noisy, 1, 10)
	if len(outB) > 10 {
		t.Fatalf("cap not enforced: %d bins", len(outB))
	}
}

func TestMergeIPBinsKeepsHeavy(t *testing.T) {
	// Two heavy IPs and many light ones in the same /30s.
	var bins []Bin
	var noisy []float64
	base := int64(0x0A000000)
	for i := int64(0); i < 16; i++ {
		bins = append(bins, Bin{base + i, base + i})
		if i == 3 {
			noisy = append(noisy, 1000)
		} else {
			noisy = append(noisy, 1)
		}
	}
	outB, _ := mergeIPBins(bins, noisy, 100, 1000)
	// The heavy address must survive as a singleton.
	foundHeavy := false
	for _, b := range outB {
		if b.Lo == base+3 && b.Hi == base+3 {
			foundHeavy = true
		}
	}
	if !foundHeavy {
		t.Errorf("heavy IP lost: %v", outB)
	}
	if len(outB) >= 16 {
		t.Errorf("light IPs not grouped: %d bins", len(outB))
	}
}

func TestAttrCodeNearest(t *testing.T) {
	a := &Attr{Field: dataset.Field{Name: "x", Kind: dataset.KindNumeric},
		Bins: []Bin{{0, 9}, {10, 19}, {30, 39}}}
	a.buildLookup()
	if c := a.Code(15); c != 1 {
		t.Errorf("Code(15) = %d, want 1", c)
	}
	// Gap value 25: nearest bin with Lo <= 25 is bin 1 ([10,19]).
	if c := a.Code(25); c != 1 {
		t.Errorf("Code(25) = %d, want 1 (nearest)", c)
	}
	if c := a.Code(-5); c != 0 {
		t.Errorf("Code(-5) = %d, want 0", c)
	}
}

func TestSampleWithinBin(t *testing.T) {
	a := &Attr{Field: dataset.Field{Name: "x", Kind: dataset.KindNumeric},
		Bins: []Bin{{10, 19}}}
	a.buildLookup()
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 200; i++ {
		if v := a.Sample(rng, 0); v < 10 || v > 19 {
			t.Fatalf("Sample = %d outside [10,19]", v)
		}
		if v := a.SampleGaussian(rng, 0); v < 10 || v > 19 {
			t.Fatalf("SampleGaussian = %d outside [10,19]", v)
		}
	}
}

func TestAddTSDiff(t *testing.T) {
	s := dataset.MustSchema(
		dataset.Field{Name: "srcip", Kind: dataset.KindIP},
		dataset.Field{Name: "ts", Kind: dataset.KindTimestamp},
	)
	tab := dataset.NewTable(s, 6)
	// Two groups: ip=1 at ts 10,30,60; ip=2 at ts 5,25.
	for _, row := range [][2]int64{{1, 30}, {2, 5}, {1, 10}, {1, 60}, {2, 25}} {
		tab.AppendRow([]int64{row[0], row[1]})
	}
	out, err := AddTSDiff(tab, "ts", "tsdiff", []string{"srcip"})
	if err != nil {
		t.Fatal(err)
	}
	diff := out.ColumnByName("tsdiff")
	ts := out.ColumnByName("ts")
	ip := out.ColumnByName("srcip")
	// Collect diffs per group and verify they reconstruct the gaps.
	got := map[int64][]int64{}
	for i := range diff {
		got[ip[i]] = append(got[ip[i]], diff[i])
		_ = ts
	}
	sum := func(xs []int64) int64 {
		var s int64
		for _, x := range xs {
			s += x
		}
		return s
	}
	if sum(got[1]) != 50 { // 30-10 + 60-30
		t.Errorf("group 1 diffs = %v, want sum 50", got[1])
	}
	if sum(got[2]) != 20 {
		t.Errorf("group 2 diffs = %v, want sum 20", got[2])
	}
}

func TestTimestampReconstruction(t *testing.T) {
	tab := smallFlowTable(t, 1000)
	aug, err := AddTSDiff(tab, trace.FieldTS, trace.FieldTSDiff,
		[]string{trace.FieldSrcIP, trace.FieldDstIP, trace.FieldSrcPort, trace.FieldDstPort, trace.FieldProto})
	if err != nil {
		t.Fatal(err)
	}
	enc, encoded, err := Build(aug, DefaultConfig(), 0.05, 29)
	if err != nil {
		t.Fatal(err)
	}
	out, err := enc.Decode(encoded, DecodeOptions{
		Seed:        7,
		GroupBy:     []string{trace.FieldSrcIP, trace.FieldDstIP, trace.FieldSrcPort, trace.FieldDstPort, trace.FieldProto},
		TSField:     trace.FieldTS,
		TSDiffField: trace.FieldTSDiff,
		DropAux:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema().Has(trace.FieldTSDiff) {
		t.Fatal("aux field should be dropped")
	}
	ts := out.ColumnByName(trace.FieldTS)
	for i, v := range ts {
		if v < 0 {
			t.Fatalf("negative reconstructed timestamp at %d: %d", i, v)
		}
	}
}

func TestDecodeShapeMismatch(t *testing.T) {
	tab := smallFlowTable(t, 300)
	enc, _, err := Build(tab, DefaultConfig(), 0.05, 31)
	if err != nil {
		t.Fatal(err)
	}
	bad := dataset.NewEncoded([]string{"x"}, []int{2}, 5)
	if _, err := enc.Decode(bad, DecodeOptions{}); err == nil {
		t.Fatal("arity mismatch must error")
	}
}

// buildWithin runs Build on tab and fails if it takes longer than a
// second: the inputs below once made it panic, loop forever, or
// allocate until the process died.
func buildWithin(t *testing.T, tab *dataset.Table) (*Encoder, *dataset.Encoded, error) {
	t.Helper()
	type result struct {
		enc     *Encoder
		encoded *dataset.Encoded
		err     error
	}
	done := make(chan result, 1)
	go func() {
		enc, encoded, err := Build(tab, DefaultConfig(), 0.05, 3)
		done <- result{enc, encoded, err}
	}()
	select {
	case r := <-done:
		return r.enc, r.encoded, r.err
	case <-time.After(time.Second):
		t.Fatal("Build did not return within a second")
		return nil, nil, nil
	}
}

// TestBuildRejectsOutOfRangePort: a port group above 65535 once became
// a bin with Lo > Hi, and decoding it panicked.
func TestBuildRejectsOutOfRangePort(t *testing.T) {
	for _, port := range []int64{70000, 65536, -1} {
		tab := smallFlowTable(t, 500)
		col := tab.ColumnByName(trace.FieldDstPort)
		for r := range col {
			col[r] = port
		}
		if _, _, err := buildWithin(t, tab); err == nil || !strings.Contains(err.Error(), "outside 0–65535") {
			t.Errorf("dstport %d: Build error %v, want an out-of-range port error", port, err)
		}
	}
}

// TestBuildExtremeValues: timestamps spanning the whole int64 range,
// a timestamp at MaxInt64, and a numeric at MaxInt64 once overflowed
// the bin arithmetic (out of memory, or a loop that never ended).
// They now bin, every value encodes into a bin that contains it, and
// decoding draws inside the bins.
func TestBuildExtremeValues(t *testing.T) {
	cases := []struct {
		name  string
		field string
		vals  []int64
	}{
		{"ts across int64", trace.FieldTS, []int64{math.MinInt64 + 1, math.MaxInt64 - 1}},
		{"ts at MaxInt64", trace.FieldTS, []int64{0, math.MaxInt64}},
		{"ts full range", trace.FieldTS, []int64{math.MinInt64, math.MaxInt64}},
		{"byt at MaxInt64", trace.FieldByt, []int64{math.MaxInt64}},
		{"byt at 2^62", trace.FieldByt, []int64{1 << 62}},
	}
	for _, tc := range cases {
		tab := smallFlowTable(t, 500)
		ci := tab.Schema().Index(tc.field)
		for i, v := range tc.vals {
			tab.SetValue(i, ci, v)
		}
		enc, encoded, err := buildWithin(t, tab)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		attr := &enc.Attrs[ci]
		for r, v := range tab.Column(ci) {
			if b := attr.Bins[encoded.Cols[ci][r]]; !b.Contains(v) {
				t.Fatalf("%s: row %d value %d encoded into [%d, %d]", tc.name, r, v, b.Lo, b.Hi)
			}
		}
		out, err := enc.Decode(encoded, DecodeOptions{Seed: 1})
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		for r, v := range out.Column(ci) {
			if b := attr.Bins[encoded.Cols[ci][r]]; !b.Contains(v) {
				t.Fatalf("%s: row %d decoded %d outside [%d, %d]", tc.name, r, v, b.Lo, b.Hi)
			}
		}
	}
}

// TestSampleWideBins: a bin wider than MaxInt64 values has no int64
// width, and Sample once panicked on it. Narrower bins draw the same
// values Int64N would.
func TestSampleWideBins(t *testing.T) {
	a := &Attr{Bins: []Bin{{0, math.MaxInt64}, {math.MinInt64, math.MaxInt64}, {-5, 1 << 40}, {10, 19}}}
	rng := rand.New(rand.NewPCG(4, 4))
	ref := rand.New(rand.NewPCG(4, 4))
	for i := 0; i < 100; i++ {
		for c, b := range a.Bins {
			v := a.Sample(rng, int32(c))
			if !b.Contains(v) {
				t.Fatalf("bin %d: Sample = %d outside [%d, %d]", c, v, b.Lo, b.Hi)
			}
			switch c {
			case 0:
				ref.Uint64N(1 << 63)
			case 1:
				ref.Uint64()
			default:
				if want := b.Lo + ref.Int64N(b.Width()); v != want {
					t.Fatalf("bin %d: Sample = %d, Int64N draw %d", c, v, want)
				}
			}
		}
	}
}

// sameBinning reports where two encoders' bins or noisy counts differ,
// comparing counts bit for bit.
func sameBinning(a, b *Encoder) string {
	for c := range a.Attrs {
		x, y := &a.Attrs[c], &b.Attrs[c]
		if !slices.Equal(x.Bins, y.Bins) {
			return fmt.Sprintf("%s: bins differ", x.Field.Name)
		}
		for i := range x.NoisyCounts {
			if math.Float64bits(x.NoisyCounts[i]) != math.Float64bits(y.NoisyCounts[i]) {
				return fmt.Sprintf("%s: bin %d count %v vs %v", x.Field.Name, i, x.NoisyCounts[i], y.NoisyCounts[i])
			}
		}
	}
	return ""
}

// TestBuildDeterministic: one table and one seed give one binning, bit
// for bit. mergeIPBins once re-summed the groups that stayed under the
// threshold at /30 in map iteration order, so the srcip counts of
// rebuilds differed in their last bits.
func TestBuildDeterministic(t *testing.T) {
	for _, ds := range datagen.Datasets() {
		tab, err := datagen.Generate(ds, datagen.Config{Rows: 3000, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			first, _, err := Build(tab, DefaultConfig(), 0.05, seed)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				again, _, err := Build(tab, DefaultConfig(), 0.05, seed)
				if err != nil {
					t.Fatal(err)
				}
				if d := sameBinning(first, again); d != "" {
					t.Fatalf("%s seed %d: rebuild %d: %s", ds, seed, i+1, d)
				}
			}
		}
	}
}

// TestPrepBuildsLikeBuild: Build calls on one shared Prep — with
// different seeds, budgets and merge settings — equal Build on the
// table each time, and leave the Prep as Prepare made it.
func TestPrepBuildsLikeBuild(t *testing.T) {
	tab, err := datagen.Generate(datagen.CAIDA, datagen.Config{Rows: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	prep, err := Prepare(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := Prepare(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, rho := range []float64{0.05, 0.5, 0.002} {
		c := cfg
		c.MaxBinsPerAttr = 40 + 30*i
		c.MergeSigmas = float64(1 + i)
		got, gotCodes, err := prep.Build(c, rho, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		want, wantCodes, err := Build(tab, c, rho, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if d := sameBinning(got, want); d != "" {
			t.Fatalf("build %d: %s", i, d)
		}
		if !reflect.DeepEqual(gotCodes, wantCodes) {
			t.Fatalf("build %d: codes differ from Build's", i)
		}
	}
	if !reflect.DeepEqual(prep, twin) {
		t.Fatal("Build modified the shared Prep")
	}
}

// TestPrepBuildRefusesFirstPassChange: a Prep is the first pass of
// one configuration; Build under other first-pass fields must fail
// rather than encode with bins they would not produce.
func TestPrepBuildRefusesFirstPassChange(t *testing.T) {
	tab := smallFlowTable(t, 300)
	prep, err := Prepare(tab, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, edit := range []func(*Config){
		func(c *Config) { c.PortBinWidth = 20 },
		func(c *Config) { c.CommonPortLimit = 512 },
		func(c *Config) { c.LogBinsPerUnit = 4 },
		func(c *Config) { c.TimestampBins = 32 },
	} {
		cfg := DefaultConfig()
		edit(&cfg)
		if _, _, err := prep.Build(cfg, 0.1, 1); err == nil {
			t.Errorf("config %+v: Prep.Build must refuse it", cfg)
		}
	}
}
