package experiments

import (
	"math"
	"testing"

	"github.com/netdpsyn/netdpsyn/internal/datagen"
	"github.com/netdpsyn/netdpsyn/internal/dataset"
	"github.com/netdpsyn/netdpsyn/internal/trace"
)

func TestRankFreqJSDIdentical(t *testing.T) {
	col := []int64{1, 1, 1, 2, 2, 3}
	if d := rankFreqJSD(col, col); math.Abs(d) > 1e-9 {
		t.Errorf("identical columns JSD = %v", d)
	}
	// A flattened distribution must diverge from a skewed one.
	skewed := []int64{1, 1, 1, 1, 1, 2}
	flat := []int64{1, 2, 3, 4, 5, 6}
	if d := rankFreqJSD(skewed, flat); d < 0.05 {
		t.Errorf("skewed vs flat JSD = %v, want clearly positive", d)
	}
}

func TestPortJSD(t *testing.T) {
	a := []int64{53, 53, 80, 443}
	if d := portJSD(a, a); math.Abs(d) > 1e-9 {
		t.Errorf("identical ports JSD = %v", d)
	}
	b := []int64{60000, 60001, 60002, 60003}
	if d := portJSD(a, b); d < 0.5 {
		t.Errorf("disjoint port ranges JSD = %v", d)
	}
}

func TestProtoJSD(t *testing.T) {
	mk := func(protos ...string) *dataset.Table {
		s := dataset.MustSchema(dataset.Field{Name: trace.FieldProto, Kind: dataset.KindCategorical})
		tab := dataset.NewTable(s, len(protos))
		for _, p := range protos {
			tab.AppendRow([]int64{tab.CatCode(0, p)})
		}
		return tab
	}
	a := mk("TCP", "TCP", "UDP")
	if d := protoJSD(a, a); math.Abs(d) > 1e-9 {
		t.Errorf("identical proto JSD = %v", d)
	}
	b := mk("ICMP", "ICMP", "ICMP")
	if d := protoJSD(a, b); d < 0.9 {
		t.Errorf("disjoint proto JSD = %v, want ≈1", d)
	}
}

func TestContinuousValues(t *testing.T) {
	raw, err := datagen.Generate(datagen.CAIDA, datagen.Config{Rows: 1000, Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"PS", "PAT", "FS"} {
		vs := continuousValues(raw, m)
		if len(vs) == 0 {
			t.Errorf("%s: no values", m)
		}
	}
	if continuousValues(raw, "??") != nil {
		t.Error("unknown metric should be nil")
	}
	flow, err := datagen.Generate(datagen.TON, datagen.Config{Rows: 500, Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"TS", "TD", "PKT", "BYT"} {
		if len(continuousValues(flow, m)) != flow.NumRows() {
			t.Errorf("%s: wrong length", m)
		}
	}
}

func TestClassifyAccuracyAligned(t *testing.T) {
	raw, err := datagen.Generate(datagen.UGR16, datagen.Config{Rows: 1500, Seed: 57})
	if err != nil {
		t.Fatal(err)
	}
	train, test := splitRaw(raw, 57)
	acc, err := classifyAccuracy(raw, train, test, "DT", 57)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.8 {
		t.Errorf("raw-on-raw accuracy = %v", acc)
	}
}
