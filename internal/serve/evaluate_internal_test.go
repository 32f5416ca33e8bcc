package serve

import (
	"bytes"
	"testing"

	netdpsyn "github.com/netdpsyn/netdpsyn"
	"github.com/netdpsyn/netdpsyn/internal/datagen"
)

// TestEvaluateScoresDecodedRelease: an evaluation decodes its target's
// release from the result spool, and the decoded CSV interns
// categorical values (proto, the label) in first-appearance order. Its
// ML and MIA scores must equal those of the synthesized table itself,
// which holds only if the decoded features are re-coded through the
// raw table's dictionaries.
func TestEvaluateScoresDecodedRelease(t *testing.T) {
	raw := tonTable(t, 400, 8)
	syn, err := netdpsyn.New(netdpsyn.Config{Epsilon: 1, Delta: 1e-5, UpdateIterations: 3, Seed: 11,
		KeyAttr: datagen.LabelField(datagen.TON)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := syn.Synthesize(raw)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Table.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := netdpsyn.LoadCSV(&buf, raw.Schema())
	if err != nil {
		t.Fatal(err)
	}
	req := EvaluationRequest{Metrics: []string{MetricML, MetricMIA}, Models: []string{"DT", "LR"}, Seed: 7}
	var table, fromCSV EvaluationResult
	if err := scoreAgainstRaw(&table, raw, res.Table, req); err != nil {
		t.Fatal(err)
	}
	if err := scoreAgainstRaw(&fromCSV, raw, decoded, req); err != nil {
		t.Fatal(err)
	}
	for _, model := range req.Models {
		if a, b := table.ML[model], fromCSV.ML[model]; a != b {
			t.Errorf("%s ML scores: table %+v, decoded %+v", model, a, b)
		}
		if a, b := table.MIA[model], fromCSV.MIA[model]; a != b {
			t.Errorf("%s MIA scores: table %+v, decoded %+v", model, a, b)
		}
	}
}
