package netml

import (
	"math"
	"testing"

	"github.com/netdpsyn/netdpsyn/internal/datagen"
	"github.com/netdpsyn/netdpsyn/internal/trace"
)

func testGroups(t *testing.T) []trace.Group {
	t.Helper()
	tab, err := datagen.Generate(datagen.DC, datagen.Config{Rows: 3000, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := trace.TableToPackets(tab)
	if err != nil {
		t.Fatal(err)
	}
	return trace.GroupByTuple(pkts)
}

func TestRepresentAllModes(t *testing.T) {
	groups := testGroups(t)
	for _, mode := range Modes {
		X, err := Represent(groups, mode)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if len(X) == 0 {
			t.Fatalf("%s: no representable flows", mode)
		}
		wantDim := map[Mode]int{
			IAT: 10, Size: 10, IATSize: 20, Stats: 10, SampNum: 10, SampSize: 10,
		}[mode]
		for _, v := range X {
			if len(v) != wantDim {
				t.Fatalf("%s: dim = %d, want %d", mode, len(v), wantDim)
			}
			for _, f := range v {
				if math.IsNaN(f) || math.IsInf(f, 0) {
					t.Fatalf("%s: non-finite feature", mode)
				}
			}
		}
	}
}

func TestRepresentSkipsSinglePacketFlows(t *testing.T) {
	single := []trace.Group{{
		Tuple:   trace.FiveTuple{SrcIP: 1},
		Packets: []trace.Packet{{TS: 1, Len: 100}},
	}}
	X, err := Represent(single, Stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(X) != 0 {
		t.Errorf("single-packet flow represented: %v", X)
	}
}

func TestRepresentUnknownMode(t *testing.T) {
	if _, err := Represent(testGroups(t), Mode("XX")); err == nil {
		t.Fatal("unknown mode must error")
	}
}

func TestStatsVectorValues(t *testing.T) {
	g := trace.Group{
		Tuple: trace.FiveTuple{SrcIP: 1},
		Packets: []trace.Packet{
			{TS: 0, Len: 100},
			{TS: 500, Len: 200},
			{TS: 1000, Len: 300},
		},
	}
	v := statsVector(g)
	if v[0] != 1.0 { // duration 1s
		t.Errorf("duration = %v", v[0])
	}
	if v[1] != 3 { // packets
		t.Errorf("pkts = %v", v[1])
	}
	if v[2] != 600 { // bytes
		t.Errorf("bytes = %v", v[2])
	}
	if v[5] != 200 { // mean size
		t.Errorf("mean size = %v", v[5])
	}
	if v[9] != 500 { // mean IAT
		t.Errorf("mean IAT = %v", v[9])
	}
}

func TestSampledWindows(t *testing.T) {
	g := trace.Group{
		Packets: []trace.Packet{
			{TS: 0, Len: 10}, {TS: 999, Len: 20},
		},
	}
	num := sampled(g, false)
	if num[0] != 1 || num[len(num)-1] != 1 {
		t.Errorf("SAMP-NUM = %v", num)
	}
	size := sampled(g, true)
	if size[0] != 10 || size[len(size)-1] != 20 {
		t.Errorf("SAMP-SIZE = %v", size)
	}
}

func TestAnomalyRatios(t *testing.T) {
	groups := testGroups(t)
	X, err := Represent(groups, Stats)
	if err != nil {
		t.Fatal(err)
	}
	anoRaw, anoSyn, err := AnomalyRatios(X, X, 7)
	if err != nil {
		t.Fatal(err)
	}
	if anoRaw != anoSyn {
		t.Errorf("same data must score identically: %v vs %v", anoRaw, anoSyn)
	}
	if anoRaw < 0 || anoRaw > 0.6 {
		t.Errorf("anomaly ratio = %v", anoRaw)
	}
	if _, _, err := AnomalyRatios(nil, X, 7); err == nil {
		t.Error("empty raw representation must error")
	}
	if _, _, err := AnomalyRatios(X, nil, 7); err == nil {
		t.Error("empty syn representation must error")
	}
}

// dcPackets returns a generated DC packet trace.
func dcPackets(t *testing.T, seed uint64) []trace.Packet {
	t.Helper()
	tab, err := datagen.Generate(datagen.DC, datagen.Config{Rows: 3000, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := trace.TableToPackets(tab)
	if err != nil {
		t.Fatal(err)
	}
	return pkts
}

// compareError is Figure 4's metric for one mode, computed the way
// the experiment does: each trace grouped and represented on its own,
// one detector fit on the raw representation scoring both, and
// |ano_syn − ano_raw| / ano_raw.
func compareError(t *testing.T, rawPkts, synPkts []trace.Packet, mode Mode, seed uint64) float64 {
	t.Helper()
	rawX, err := Represent(trace.GroupByTuple(rawPkts), mode)
	if err != nil {
		t.Fatal(err)
	}
	synX, err := Represent(trace.GroupByTuple(synPkts), mode)
	if err != nil {
		t.Fatal(err)
	}
	anoRaw, anoSyn, err := AnomalyRatios(rawX, synX, seed)
	if err != nil {
		t.Fatal(err)
	}
	if anoRaw == 0 {
		t.Fatalf("raw anomaly ratio is 0 in mode %v: the relative error is undefined", mode)
	}
	return math.Abs(anoSyn-anoRaw) / anoRaw
}

func TestCompareErrorSelfIsZero(t *testing.T) {
	pkts := dcPackets(t, 37)
	syn := append([]trace.Packet(nil), pkts...)
	if rel := compareError(t, pkts, syn, Stats, 11); rel != 0 {
		t.Errorf("self comparison error = %v, want 0 (same detector, same data)", rel)
	}
}

func TestCompareErrorDetectsDistortion(t *testing.T) {
	pkts := dcPackets(t, 41)
	// Distort: inflate every packet size tenfold.
	distorted := append([]trace.Packet(nil), pkts...)
	for i := range distorted {
		distorted[i].Len *= 10
	}
	if rel := compareError(t, pkts, distorted, Size, 11); rel <= 0 {
		t.Errorf("distorted trace should have positive error, got %v", rel)
	}
}
