package experiments

import (
	"github.com/netdpsyn/netdpsyn/internal/binning"
	"github.com/netdpsyn/netdpsyn/internal/core"
	"github.com/netdpsyn/netdpsyn/internal/datagen"
	"github.com/netdpsyn/netdpsyn/internal/dataset"
	"github.com/netdpsyn/netdpsyn/internal/stats"
	"github.com/netdpsyn/netdpsyn/internal/trace"
)

// Ablations runs the design-choice ablations DESIGN.md calls out,
// beyond the paper's own GUMMI-vs-GUM study (Figure 8): each row is a
// pipeline variant, each column a fidelity metric on TON.
//
//   - full: the complete NetDPSyn pipeline.
//   - coarse-binning: PrivSyn-style aggressive low-count collapsing
//     instead of type-dependent binning.
//   - no-tsdiff: temporal augmentation disabled.
//   - no-consistency: marginal post-processing (weighted-average
//     consistency + protocol rules) disabled.
//   - uniform-budget: 1/3,1/3,1/3 instead of 0.1/0.1/0.8.
func Ablations(r *Runner) (*Grid, error) {
	raw, err := r.Raw(datagen.TON)
	if err != nil {
		return nil, err
	}
	train, test := splitRaw(raw, r.Scale.Seed^0xab)
	_ = train

	variants := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"full", func(c *core.Config) {}},
		{"coarse-binning", func(c *core.Config) {
			// PrivSyn's generic approach: collapse aggressively into
			// few bins regardless of field type.
			c.Binning.MaxBinsPerAttr = 24
			c.Binning.MergeSigmas = 30
			c.Binning.LogBinsPerUnit = 1
		}},
		{"no-tsdiff", func(c *core.Config) { c.DisableTSDiff = true }},
		{"no-consistency", func(c *core.Config) {
			c.DisableConsistency = true
			c.DisableProtocolRules = true
		}},
		{"uniform-budget", func(c *core.Config) { c.BudgetSplit = [3]float64{1, 1, 1} }},
	}
	rows := make([]string, len(variants))
	for i, v := range variants {
		rows[i] = v.name
	}
	g := NewGrid("Ablations (TON): pipeline variants", rows, []string{"DTAcc", "DstPortJSD", "FlowGapEMD"})
	g.Note = "FlowGapEMD: EMD of per-5-tuple inter-record gaps vs raw — the temporal structure tsdiff exists to preserve."

	rawIAT := flowGapSamples(raw)
	for _, v := range variants {
		cfg := core.DefaultConfig()
		cfg.Epsilon = r.Scale.Epsilon
		cfg.Delta = r.Scale.Delta
		cfg.GUM.Iterations = r.Scale.GUMIterations
		cfg.Seed = r.Scale.Seed
		v.mutate(&cfg)
		p, err := core.NewPipeline(cfg)
		if err != nil {
			return nil, err
		}
		res, err := p.Synthesize(raw)
		if err != nil {
			return nil, err
		}
		syn := res.Table
		if acc, err := classifyAccuracy(raw, syn, test, "DT", r.Scale.Seed); err == nil {
			g.Set(v.name, "DTAcc", acc)
		}
		g.Set(v.name, "DstPortJSD", categoricalJSD(raw, syn, "DP"))
		if sv := flowGapSamples(syn); len(sv) > 0 && len(rawIAT) > 0 {
			if emd, err := stats.EMDSamples(rawIAT, sv); err == nil {
				g.Set(v.name, "FlowGapEMD", emd)
			}
		}
	}
	return g, nil
}

// flowGapSamples computes the per-5-tuple inter-record time gaps of a
// trace — exactly the quantity the tsdiff feature captures and the
// decoder reconstructs (identifier fields are decoded
// cluster-consistently, so synthesized conversations survive).
func flowGapSamples(t *dataset.Table) []float64 {
	aug, err := binning.AddTSDiff(t, trace.FieldTS, "_gap", []string{
		trace.FieldSrcIP, trace.FieldDstIP, trace.FieldSrcPort, trace.FieldDstPort, trace.FieldProto,
	})
	if err != nil {
		return nil
	}
	col := aug.ColumnByName("_gap")
	out := make([]float64, 0, len(col))
	for _, v := range col {
		if v > 0 {
			out = append(out, float64(v))
		}
	}
	return out
}
