package core

import (
	"testing"

	"github.com/netdpsyn/netdpsyn/internal/datagen"
	"github.com/netdpsyn/netdpsyn/internal/dataset"
)

func TestSynthesizeWindowed(t *testing.T) {
	raw, err := datagen.Generate(datagen.UGR16, datagen.Config{Rows: 1800, Seed: 111})
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewTableTimeWindows(raw, spanFor(t, raw, 3))
	if err != nil {
		t.Fatal(err)
	}
	var reports []Report
	rows := 0
	err = SynthesizeStream(src, fastPipelineConfig(), func(wr WindowResult) error {
		reports = append(reports, wr.Report)
		rows += wr.Table.NumRows()
		if wr.Table.Schema().NumFields() != raw.Schema().NumFields() {
			t.Errorf("window %d: schema width changed", wr.Window)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("windows = %d", len(reports))
	}
	if rows < raw.NumRows()/2 {
		t.Errorf("windowed output too small: %d of %d", rows, raw.NumRows())
	}
	// Every window used the full budget (parallel composition).
	for i, rep := range reports {
		if rep.Rho != reports[0].Rho {
			t.Errorf("window %d used different budget", i)
		}
	}
}

func TestSynthesizeWindowedNoTimestamp(t *testing.T) {
	// A table without a ts field cannot be windowed.
	s := dataset.MustSchema(
		dataset.Field{Name: "x", Kind: dataset.KindNumeric},
		dataset.Field{Name: "label", Kind: dataset.KindCategorical, Label: true},
	)
	tab := dataset.NewTable(s, 4)
	for i := int64(0); i < 4; i++ {
		tab.AppendRow([]int64{i, tab.CatCode(1, "a")})
	}
	if _, err := NewTableTimeWindows(tab, 2); err == nil {
		t.Fatal("missing ts must error")
	}
}
