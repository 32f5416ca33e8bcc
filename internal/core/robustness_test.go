package core

import (
	"testing"

	"github.com/netdpsyn/netdpsyn/internal/dataset"
	"github.com/netdpsyn/netdpsyn/internal/trace"
)

// tinyFlowTable builds a minimal flow table with n copies of a single
// record shape (optionally with one varying column).
func tinyFlowTable(t *testing.T, n int, vary bool) *dataset.Table {
	t.Helper()
	schema := trace.FlowSchema("label")
	tab := dataset.NewTable(schema, n)
	tcp := tab.CatCode(schema.Index(trace.FieldProto), "TCP")
	ben := tab.CatCode(schema.LabelIndex(), "benign")
	for i := 0; i < n; i++ {
		dport := int64(80)
		if vary && i%2 == 0 {
			dport = 443
		}
		row := []int64{
			0xC0A80001, 0x0A000001, 40000 + int64(i%3), dport, tcp,
			int64(i * 10), 100, 5, 500, ben,
		}
		if err := tab.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func TestPipelineTinyInputs(t *testing.T) {
	for _, n := range []int{2, 5, 20} {
		tab := tinyFlowTable(t, n, true)
		cfg := fastPipelineConfig()
		cfg.GUM.Iterations = 3
		p, err := NewPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Synthesize(tab)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Table.NumRows() == 0 {
			t.Errorf("n=%d: empty output", n)
		}
	}
}

func TestPipelineConstantColumns(t *testing.T) {
	// Every record identical: single-bin attributes everywhere.
	tab := tinyFlowTable(t, 50, false)
	cfg := fastPipelineConfig()
	cfg.GUM.Iterations = 3
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Synthesize(tab)
	if err != nil {
		t.Fatal(err)
	}
	// The label column must still decode to the one real value.
	li := res.Table.Schema().LabelIndex()
	for r := 0; r < res.Table.NumRows(); r++ {
		if got := res.Table.CatValue(li, res.Table.Value(r, li)); got != "benign" {
			t.Fatalf("row %d label = %q", r, got)
		}
	}
}

func TestPipelineSingleClass(t *testing.T) {
	// GUMMI keyed on a label with domain 1 must not break.
	tab := tinyFlowTable(t, 100, true)
	cfg := fastPipelineConfig()
	cfg.GUM.Iterations = 3
	cfg.UseGUMMI = true
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Synthesize(tab); err != nil {
		t.Fatal(err)
	}
}

func TestGUMNoMarginals(t *testing.T) {
	g := NewGUM(nil, 10, DefaultGUMConfig())
	ds := dataset.NewEncoded([]string{"a"}, []int{2}, 10)
	if errs := g.run(ds, newEngine(0)); errs != nil {
		t.Errorf("no-marginal GUM should be a no-op, got %v", errs)
	}
}

func TestGUMEmptyDataset(t *testing.T) {
	g := NewGUM(nil, 0, DefaultGUMConfig())
	ds := dataset.NewEncoded([]string{"a"}, []int{2}, 0)
	if errs := g.run(ds, newEngine(0)); errs != nil {
		t.Errorf("empty-dataset GUM should be a no-op, got %v", errs)
	}
}
