package experiments

import (
	"time"

	"github.com/netdpsyn/netdpsyn/internal/baselines/copula"
	"github.com/netdpsyn/netdpsyn/internal/core"
	"github.com/netdpsyn/netdpsyn/internal/datagen"
	"github.com/netdpsyn/netdpsyn/internal/dataset"
	"github.com/netdpsyn/netdpsyn/internal/ml"
	"github.com/netdpsyn/netdpsyn/internal/trace"
)

// CopulaComparison reproduces the paper's §2.3 remark — "We did
// preliminary experiments with Gaussian copula, but the result was
// unsatisfactory" — by comparing a DP Gaussian-copula synthesizer
// against NetDPSyn on the TON classification task. Rows are the two
// synthesizers plus the Real baseline; columns the five models.
func CopulaComparison(r *Runner) (*Grid, error) {
	raw, err := r.Raw(datagen.TON)
	if err != nil {
		return nil, err
	}
	train, test := splitRaw(raw, r.Scale.Seed^0xcc)
	g := NewGrid("Extension: Gaussian copula vs NetDPSyn (TON accuracy)", []string{"Real", "NetDPSyn", "Copula"}, ml.Models)
	for _, model := range ml.Models {
		if acc, err := classifyAccuracy(raw, train, test, model, r.Scale.Seed); err == nil {
			g.Set("Real", model, acc)
		}
	}
	syn, err := r.Syn("NetDPSyn", datagen.TON)
	if err != nil {
		return nil, err
	}
	for _, model := range ml.Models {
		if acc, err := classifyAccuracy(raw, syn, test, model, r.Scale.Seed); err == nil {
			g.Set("NetDPSyn", model, acc)
		}
	}
	ccfg := copula.DefaultConfig()
	ccfg.Epsilon = r.Scale.Epsilon
	ccfg.Delta = r.Scale.Delta
	ccfg.Seed = r.Scale.Seed
	cs, err := copula.New(ccfg)
	if err != nil {
		return nil, err
	}
	csyn, err := cs.Synthesize(raw)
	if err != nil {
		return nil, err
	}
	for _, model := range ml.Models {
		if acc, err := classifyAccuracy(raw, csyn, test, model, r.Scale.Seed); err == nil {
			g.Set("Copula", model, acc)
		}
	}
	return g, nil
}

// WindowedComparison evaluates the windowed-synthesis extension:
// NetDPSyn run whole versus in 2 fixed time spans (parallel
// composition, same (ε, δ) guarantee), compared on DT accuracy and
// synthesis time. Rows: variants; columns: DTAcc, Seconds.
func WindowedComparison(r *Runner) (*Grid, error) {
	raw, err := r.Raw(datagen.TON)
	if err != nil {
		return nil, err
	}
	_, test := splitRaw(raw, r.Scale.Seed^0xcd)
	cfg := core.DefaultConfig()
	cfg.Epsilon = r.Scale.Epsilon
	cfg.Delta = r.Scale.Delta
	cfg.GUM.Iterations = r.Scale.GUMIterations
	cfg.Seed = r.Scale.Seed
	cfg.Workers = r.Scale.Workers

	// The emulated timestamps start near 0, so a span just over half
	// the last one cuts the trace into buckets 0 and 1.
	var last int64
	for _, v := range raw.ColumnByName(trace.FieldTS) {
		last = max(last, v)
	}
	g := NewGrid("Extension: windowed synthesis (TON)", []string{"whole", "2-spans"}, []string{"DTAcc", "Seconds"})
	g.Note = "Each window pays the full DP noise on fewer records, so windowing only pays off when windows stay large; at the paper's 1M-record scale it bounds GUM's cost, at emulated scale it mostly shows the noise cost."
	for _, variant := range []struct {
		name string
		span int64
	}{{"whole", 0}, {"2-spans", last/2 + 1}} {
		start := nowSeconds()
		syn, err := synthesizeSpans(raw, cfg, variant.span)
		if err != nil {
			return nil, err
		}
		elapsed := nowSeconds() - start
		if acc, err := classifyAccuracy(raw, syn, test, "DT", r.Scale.Seed); err == nil {
			g.Set(variant.name, "DTAcc", acc)
		}
		g.Set(variant.name, "Seconds", elapsed)
	}
	return g, nil
}

// synthesizeSpans runs the pipeline over the whole trace (span 0) or
// over each of its fixed time spans, concatenating the windows in time
// order.
func synthesizeSpans(raw *dataset.Table, cfg core.Config, span int64) (*dataset.Table, error) {
	if span == 0 {
		p, err := core.NewPipeline(cfg)
		if err != nil {
			return nil, err
		}
		res, err := p.Synthesize(raw)
		if err != nil {
			return nil, err
		}
		return res.Table, nil
	}
	src, err := core.NewTableTimeWindows(raw, span)
	if err != nil {
		return nil, err
	}
	var out *dataset.Table
	err = core.SynthesizeStream(src, cfg, func(wr core.WindowResult) error {
		if out == nil {
			out = wr.Table
			return nil
		}
		return out.AppendRowRange(wr.Table, 0, wr.Table.NumRows())
	})
	return out, err
}

// nowSeconds is a tiny clock shim (kept separate for testability).
func nowSeconds() float64 { return float64(timeNow().UnixNano()) / 1e9 }

var timeNow = time.Now
