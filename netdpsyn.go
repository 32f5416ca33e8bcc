// Package netdpsyn synthesizes network packet and flow traces under
// (ε, δ)-differential privacy, implementing the NetDPSyn system
// (Sun et al., IMC 2024). Instead of training a generative model with
// DP-SGD, NetDPSyn captures the underlying distributions as noisy
// marginal tables — protected once by the Gaussian mechanism under
// zero-Concentrated DP — and synthesizes records from them, which
// preserves far more utility at the same privacy budget.
//
// Basic usage:
//
//	syn, err := netdpsyn.New(netdpsyn.Config{Epsilon: 2.0, Delta: 1e-5})
//	if err != nil { ... }
//	out, err := syn.Synthesize(table)   // table: a *netdpsyn.Table of trace records
//	if err != nil { ... }
//	out.Table.WriteCSV(w)               // privacy-safe synthetic trace
//
// Tables are loaded from CSV with LoadCSV against one of the schema
// constructors (FlowSchema, PacketSchema), or built programmatically.
package netdpsyn

import (
	"context"
	"fmt"
	"io"
	"math"
	"strconv"

	"github.com/netdpsyn/netdpsyn/internal/binning"
	"github.com/netdpsyn/netdpsyn/internal/core"
	"github.com/netdpsyn/netdpsyn/internal/dataset"
	"github.com/netdpsyn/netdpsyn/internal/dp"
	"github.com/netdpsyn/netdpsyn/internal/stats"
	"github.com/netdpsyn/netdpsyn/internal/trace"
)

// Table is a column-oriented network trace table (re-exported from
// the internal dataset substrate).
type Table = dataset.Table

// Schema describes the fields of a trace table.
type Schema = dataset.Schema

// Field is one schema column.
type Field = dataset.Field

// Field kinds, used when declaring custom schemas.
const (
	KindIP          = dataset.KindIP
	KindPort        = dataset.KindPort
	KindCategorical = dataset.KindCategorical
	KindNumeric     = dataset.KindNumeric
	KindTimestamp   = dataset.KindTimestamp
)

// Config configures the synthesizer. The zero value is completed with
// the paper's defaults by New: ε = 2.0, δ = 1e-5, budget split
// 0.1/0.1/0.8, 200 GUM iterations, GUMMI initialization, τ = 0.1.
type Config struct {
	// Epsilon and Delta form the (ε, δ)-DP guarantee of the output.
	Epsilon float64
	Delta   float64
	// UpdateIterations overrides the number of GUM update rounds
	// (the paper's default is 200; smaller values trade fidelity for
	// speed — see Figure 8).
	UpdateIterations int
	// KeyAttr names the attribute whose correlations GUMMI seeds
	// first (defaults to the schema's label field).
	KeyAttr string
	// Tau is the protocol-rule probability threshold.
	Tau float64
	// SynthRecords fixes the output record count (0 derives it from
	// the noisy marginals).
	SynthRecords int
	// Seed makes synthesis deterministic.
	Seed uint64
	// Workers bounds the parallelism of the staged synthesis engine
	// (0 means all available cores). Output is byte-identical across
	// worker counts for a fixed Seed.
	Workers int
	// UseGUM disables GUMMI's marginal initialization (ablation).
	UseGUM bool
	// Metrics optionally wires engine-level observability (worker
	// occupancy, live stage timings) into every run of this
	// synthesizer; nil disables it at zero cost. It never affects
	// synthesis output. A serving daemon passes one EngineMetrics to
	// every synthesizer so the hooks aggregate across jobs. Excluded
	// from JSON: configs are journaled durably, and hooks are runtime
	// wiring, not release parameters.
	Metrics *EngineMetrics `json:"-"`
}

// EngineMetrics wires optional engine observability hooks; see the
// field docs on the core type. Both hooks are allocation-free on the
// synthesis hot path.
type EngineMetrics = core.EngineMetrics

// Synthesizer produces DP-protected synthetic traces.
type Synthesizer struct {
	pipeline *core.Pipeline
	cfg      core.Config
	profCtx  context.Context // parents per-stage pprof labels; nil = Background
}

// WithProfileContext returns a Synthesizer that parents every
// synthesis call's per-stage pprof labels on ctx: labels already on
// ctx (a serving daemon's job_kind/dataset, say — set via pprof.Do)
// merge with the engine's per-stage "stage" label instead of being
// replaced, so `pprof -tagfocus dataset=X,stage=gum` slices profiles
// by both axes. The context carries labels only — it is never
// consulted for cancellation or deadlines. The receiver is not
// modified; the returned copy shares its pipeline.
func (s *Synthesizer) WithProfileContext(ctx context.Context) *Synthesizer {
	c := *s
	c.profCtx = ctx
	return &c
}

// profileCtx is the label parent for this synthesizer's runs.
func (s *Synthesizer) profileCtx() context.Context {
	if s.profCtx != nil {
		return s.profCtx
	}
	return context.Background()
}

// New validates the configuration and returns a Synthesizer. Zero
// fields take the paper's defaults; explicitly-set fields are
// validated here so bad values fail fast with a descriptive error
// instead of flowing silently into the pipeline.
func New(cfg Config) (*Synthesizer, error) {
	// NaN slips through every comparison guard below (all comparisons
	// with NaN are false), and ±Inf is as meaningless a privacy
	// parameter — reject non-finite values first.
	for _, f := range []struct {
		name string
		v    float64
	}{{"Epsilon", cfg.Epsilon}, {"Delta", cfg.Delta}, {"Tau", cfg.Tau}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return nil, fmt.Errorf("netdpsyn: %s must be finite, got %v", f.name, f.v)
		}
	}
	if cfg.Epsilon < 0 {
		return nil, fmt.Errorf("netdpsyn: Epsilon must be positive, got %v (leave 0 for the default 2.0)", cfg.Epsilon)
	}
	if cfg.Delta < 0 {
		return nil, fmt.Errorf("netdpsyn: Delta must be in (0,1), got %v (leave 0 for the default 1e-5)", cfg.Delta)
	}
	if cfg.Delta >= 1 {
		return nil, fmt.Errorf("netdpsyn: Delta must be in (0,1), got %v — δ ≥ 1 gives no privacy", cfg.Delta)
	}
	if cfg.Tau < 0 || cfg.Tau > 1 {
		return nil, fmt.Errorf("netdpsyn: Tau is a probability threshold and must lie in (0,1], got %v", cfg.Tau)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("netdpsyn: Workers must be non-negative, got %d (0 means all cores)", cfg.Workers)
	}
	if cfg.UpdateIterations < 0 {
		return nil, fmt.Errorf("netdpsyn: UpdateIterations must be non-negative, got %d (0 means the default 200)", cfg.UpdateIterations)
	}
	if cfg.SynthRecords < 0 {
		return nil, fmt.Errorf("netdpsyn: SynthRecords must be non-negative, got %d (0 derives the count from noisy totals)", cfg.SynthRecords)
	}
	cc := core.DefaultConfig()
	if cfg.Epsilon != 0 {
		cc.Epsilon = cfg.Epsilon
	}
	if cfg.Delta != 0 {
		cc.Delta = cfg.Delta
	}
	if cfg.UpdateIterations > 0 {
		cc.GUM.Iterations = cfg.UpdateIterations
	}
	if cfg.KeyAttr != "" {
		cc.KeyAttr = cfg.KeyAttr
	}
	if cfg.Tau > 0 {
		cc.Tau = cfg.Tau
	}
	cc.SynthRecords = cfg.SynthRecords
	cc.Seed = cfg.Seed
	cc.Workers = cfg.Workers
	cc.UseGUMMI = !cfg.UseGUM
	cc.Metrics = cfg.Metrics
	p, err := core.NewPipeline(cc)
	if err != nil {
		return nil, err
	}
	return &Synthesizer{pipeline: p, cfg: cc}, nil
}

// StageTiming splits one pipeline stage's cost into wall-clock time
// and summed worker-busy time (Busy/Wall ≈ achieved parallelism).
type StageTiming = core.StageTiming

// StageSpan is one ordered entry of a run's stage trace: the stage
// name, its absolute start instant, and its wall/busy split. Where
// Stages aggregates per stage name, Spans preserves execution order
// and timing, so a job-level trace can be reconstructed.
type StageSpan = core.StageSpan

// Result is the outcome of a synthesis run.
type Result struct {
	// Table is the synthesized trace, same schema as the input.
	Table *Table
	// Epsilon and Delta echo the privacy guarantee of the output.
	Epsilon, Delta float64
	// Rho is the zCDP budget the run consumed (the ε/δ target after
	// the Bun–Steinke conversion); long-lived services compose it
	// additively across releases from the same trace.
	Rho float64
	// SelectedMarginals lists the attribute sets DenseMarg published.
	SelectedMarginals [][]string
	// Records is the number of synthesized records.
	Records int
	// Stages is the per-stage wall/busy timing split of the run,
	// keyed by stage name (preprocess, select, publish, postprocess,
	// gum, decode).
	Stages map[string]StageTiming
	// Spans is the ordered stage trace of the run (execution order,
	// absolute start times) — what Stages aggregates away.
	Spans []StageSpan
}

// Synthesize runs the NetDPSyn pipeline on a trace table.
func (s *Synthesizer) Synthesize(t *Table) (*Result, error) {
	if t == nil || t.NumRows() == 0 {
		return nil, fmt.Errorf("netdpsyn: empty input table")
	}
	res, err := s.pipeline.SynthesizeCtx(s.profileCtx(), t)
	if err != nil {
		return nil, err
	}
	return &Result{
		Table:             res.Table,
		Epsilon:           s.cfg.Epsilon,
		Delta:             s.cfg.Delta,
		Rho:               res.Report.Rho,
		SelectedMarginals: res.Report.SelectedSets,
		Records:           res.Report.SynthRecords,
		Stages:            res.Report.Stages,
		Spans:             res.Report.Spans,
	}, nil
}

// FieldTS is the canonical timestamp field name; windowed and
// streaming synthesis partition traces on it.
const FieldTS = "ts"

// WindowResult is one synthesized window of a windowed or streaming
// run, delivered in window order as it completes.
type WindowResult struct {
	// Window is the time-window index within the trace.
	Window int
	// Bucket is the window's bucket key (the source's Window.ID): the
	// absolute time bucket ⌊ts/span⌋. It is the key a per-window
	// budget ledger charges and the one job traces report.
	Bucket int64
	// Table is the synthesized trace for this window, same schema as
	// the input.
	Table *Table
	// Records is the number of synthesized records in this window.
	Records int
	// Rho is the zCDP budget the window's release consumed. Fixed
	// time-span windows have data-independent membership, so they
	// compose in parallel and the whole release costs one window's ρ.
	Rho float64
	// Stages is the window's per-stage wall/busy timing split.
	Stages map[string]StageTiming
	// Spans is the window's ordered stage trace (execution order,
	// absolute start times).
	Spans []StageSpan
}

// StreamOptions configures SynthesizeStream's windowing.
type StreamOptions struct {
	// WindowSpan selects fixed time-range windows of that many
	// timestamp units — a record with timestamp ts lands in bucket
	// ⌊ts/span⌋, a function of the record alone. This data-independent
	// membership is what the parallel composition theorem requires, so
	// the combined release carries a record-level (ε, δ) guarantee at
	// one window's cost. Identical to SynthesizeTimeWindows over the
	// pre-loaded table. SynthesizeStream requires it.
	WindowSpan int64
	// MaxWindowRows fails the stream if one time window holds more
	// than this many records (0 = unbounded): a resource guard keeping
	// the per-window working set bounded when the trace is bigger than
	// RAM. A tripped cap means the span is too coarse for the trace's
	// density.
	MaxWindowRows int
	// BatchRows tunes the CSV decode batch size (0 = default 4096).
	// It affects memory granularity only, never output.
	BatchRows int
	// BeforeWindow, when non-nil, runs before each window's pipeline
	// with the window's bucket key and record count; returning an
	// error stops the stream before that window (or any later one) is
	// synthesized. It is the admission seam for per-window budget
	// accounting: a ledger that meters ρ per bucket key charges here,
	// so the charge is durable before any noise is sampled for the
	// window. Note the callback observes which buckets are non-empty
	// (and how full) — callers metering a deployment where bucket
	// occupancy is itself sensitive must treat that information with
	// the same care as the release (see the serve layer's declared
	// bucket ranges). BeforeWindow never changes synthesis output.
	BeforeWindow func(bucket int64, rows int) error
}

// SynthesizeStream reads a CSV trace from r and synthesizes it
// window-by-window under bounded memory: no full-trace table is ever
// built, so trace length is limited by disk (or the wire), not RAM.
// The stream must be time-ordered on the "ts" field; each
// time-contiguous window is synthesized under the full (ε, δ) budget
// of cfg and emitted through emit in window order as it completes.
// The windows are fixed time spans (StreamOptions.WindowSpan), which
// compose in parallel: the combined release is record-level (ε, δ)-DP.
// At a fixed cfg.Seed and span the emitted windows are byte-identical
// to SynthesizeTimeWindows on the pre-loaded table, for any worker
// count.
func SynthesizeStream(r io.Reader, schema *Schema, cfg Config, opts StreamOptions, emit func(WindowResult) error) error {
	syn, err := New(cfg)
	if err != nil {
		return err
	}
	return syn.SynthesizeStream(r, schema, opts, emit)
}

// SynthesizeStream is the method form of the package-level
// SynthesizeStream, for callers that reuse a validated Synthesizer.
func (s *Synthesizer) SynthesizeStream(r io.Reader, schema *Schema, opts StreamOptions, emit func(WindowResult) error) error {
	src, err := StreamWindowSource(r, schema, opts)
	if err != nil {
		return err
	}
	return s.synthesizeGated(src, opts.BeforeWindow, emit)
}

// StreamWindowSource is the WindowSource SynthesizeStream reads: the
// fixed time-span windows of a time-ordered CSV stream, cut by
// opts.WindowSpan and held to opts.MaxWindowRows (opts.BeforeWindow
// belongs to the synthesis call, not the source). It is exposed so
// callers can run it through SynthesizeSource alongside other
// sources; the emitted windows are the same either way.
func StreamWindowSource(r io.Reader, schema *Schema, opts StreamOptions) (WindowSource, error) {
	cs, err := dataset.NewCSVStream(r, schema, opts.BatchRows)
	if err != nil {
		return nil, err
	}
	sw, err := dataset.NewStreamWindows(cs, schema, dataset.WindowSplit{
		Field:       FieldTS,
		Span:        opts.WindowSpan,
		MaxSpanRows: opts.MaxWindowRows,
	})
	if err != nil {
		return nil, err // not a nil *StreamWindows inside a non-nil interface
	}
	return sw, nil
}

// SynthesizeTimeWindows splits a pre-loaded trace into fixed time
// windows of `span` timestamp units — a record with timestamp ts
// belongs to bucket ⌊ts/span⌋, a function of that record alone — and
// synthesizes each non-empty window under the full (ε, δ) budget,
// emitting every window as it completes. Because window membership
// (and each window's seed) is data-independent, the per-window
// releases compose in parallel: the combined release is (ε, δ)-DP at
// record level, at one window's ρ. (The set of non-empty buckets is
// itself visible: empty buckets release nothing.) This is the mode
// the netdpsynd windowed job kind charges a single window's ρ for.
func (s *Synthesizer) SynthesizeTimeWindows(t *Table, span int64, emit func(WindowResult) error) error {
	if t == nil || t.NumRows() == 0 {
		return fmt.Errorf("netdpsyn: empty input table")
	}
	src, err := core.NewTableTimeWindows(t, span)
	if err != nil {
		return err
	}
	return s.synthesizeSource(src, emit)
}

// Window is one partition of a trace flowing through windowed
// synthesis: its bucket key (ID) and its self-contained table.
type Window = dataset.Window

// WindowSource yields trace partitions for windowed synthesis; see
// the core engine for the seeding and composition contract. A source
// may block in Next awaiting live data (implement Stop as
// dataset.LiveWindows does so an aborted stream can unblock it).
type WindowSource = core.WindowSource

// WindowFeed is the push seam of continuous ingest: producers publish
// whole fixed time-bucket windows as they are sealed, and live
// sources replay the feed and then block awaiting the next seal. It
// is what the netdpsynd PUT /datasets/{id}/windows/{bucket} endpoint
// feeds, exported here for library deployments that ingest windows
// in-process.
type WindowFeed = dataset.WindowFeed

// LiveWindows is the blocking WindowSource over a WindowFeed (see
// WindowFeed.Live).
type LiveWindows = dataset.LiveWindows

// NewWindowFeed creates an empty live window feed over the canonical
// "ts" field with fixed time buckets of `span` timestamp units.
func NewWindowFeed(schema *Schema, span int64) (*WindowFeed, error) {
	return dataset.NewWindowFeed(schema, FieldTS, span)
}

// TimeBucket maps a timestamp to its span window key ⌊ts/span⌋ (floor
// semantics, so negative timestamps bucket consistently) — the bucket
// number a producer PUTs a window under, and the key the per-window
// budget ledger charges.
func TimeBucket(ts, span int64) int64 {
	return dataset.TimeBucket(ts, span)
}

// TimeWindowSource adapts a pre-loaded trace to a fixed time-span
// WindowSource — the same partitions (and bucket IDs, hence seeds)
// SynthesizeTimeWindows uses, exposed so callers can run them through
// SynthesizeSource with a BeforeWindow hook.
func TimeWindowSource(t *Table, span int64) (WindowSource, error) {
	return core.NewTableTimeWindows(t, span)
}

// SynthesizeSource runs windowed synthesis over an arbitrary
// WindowSource: each yielded window is synthesized under the full
// (ε, δ) budget with a seed derived from (Config.Seed, Window.ID) and
// emitted in yield order as it completes. The source decides the
// partitioning — and therefore the composition argument; see
// WindowSource. Of opts, only BeforeWindow applies here (the split
// fields configure CSV streams and must be zero). With a live source
// (WindowFeed.Live) the call keeps synthesizing windows as they are
// published and returns when the feed is closed and drained.
func (s *Synthesizer) SynthesizeSource(src WindowSource, opts StreamOptions, emit func(WindowResult) error) error {
	if opts.WindowSpan != 0 || opts.MaxWindowRows != 0 || opts.BatchRows != 0 {
		return fmt.Errorf("netdpsyn: SynthesizeSource takes the partitioning from the source; only StreamOptions.BeforeWindow may be set")
	}
	if src == nil {
		return fmt.Errorf("netdpsyn: nil window source")
	}
	return s.synthesizeGated(src, opts.BeforeWindow, emit)
}

// gatedSource runs a BeforeWindow hook in front of an inner source,
// forwarding the optional Windows/Stop extensions so worker splitting
// and live-abort behave exactly as without the gate.
type gatedSource struct {
	src    core.WindowSource
	before func(bucket int64, rows int) error
}

func (g *gatedSource) Next() (dataset.Window, error) {
	w, err := g.src.Next()
	if err != nil {
		return w, err
	}
	if w.Table != nil && w.Table.NumRows() > 0 {
		if err := g.before(w.ID, w.Table.NumRows()); err != nil {
			return dataset.Window{}, err
		}
	}
	return w, nil
}

func (g *gatedSource) Windows() int {
	if wc, ok := g.src.(interface{ Windows() int }); ok {
		return wc.Windows()
	}
	return 0
}

func (g *gatedSource) Stop() {
	if st, ok := g.src.(core.StoppableSource); ok {
		st.Stop()
	}
}

func (s *Synthesizer) synthesizeGated(src core.WindowSource, before func(bucket int64, rows int) error, emit func(WindowResult) error) error {
	if before != nil {
		src = &gatedSource{src: src, before: before}
	}
	return s.synthesizeSource(src, emit)
}

func (s *Synthesizer) synthesizeSource(src core.WindowSource, emit func(WindowResult) error) error {
	return core.SynthesizeStreamCtx(s.profileCtx(), src, s.cfg, func(wr core.WindowResult) error {
		return emit(WindowResult{
			Window:  wr.Window,
			Bucket:  wr.Bucket,
			Table:   wr.Table,
			Records: wr.Report.SynthRecords,
			Rho:     wr.Report.Rho,
			Stages:  wr.Report.Stages,
			Spans:   wr.Report.Spans,
		})
	})
}

// ScanCSV validates a CSV trace for streaming synthesis without
// materializing it: the header must cover the schema, every row must
// decode, every port field must lie in 0–65535 (synthesis rejects
// other ports), and the "ts" field must be non-decreasing (streaming
// windows are cut in stream order, so an unsorted trace would not
// yield time-contiguous partitions). It returns the record count and
// reads the input exactly once, in bounded memory.
func ScanCSV(r io.Reader, schema *Schema) (rows int, err error) {
	tsIdx := schema.Index(FieldTS)
	if tsIdx < 0 {
		return 0, fmt.Errorf("netdpsyn: streaming needs a %q field in the schema", FieldTS)
	}
	s, err := dataset.NewCSVStream(r, schema, 0)
	if err != nil {
		return 0, err
	}
	// One recycled batch table: the scan decodes the whole trace
	// without allocating per batch (or, once dictionaries are warm,
	// per row).
	b := dataset.NewTable(schema, 0)
	var last int64
	have := false
	for {
		b.Reset()
		if err := s.NextInto(b); err == io.EOF {
			return rows, nil
		} else if err != nil {
			return 0, err
		}
		if r, c, bad := b.BadPort(); bad {
			return 0, fmt.Errorf("netdpsyn: row %d: %s %d outside 0–%d", rows+r+1, schema.Fields[c].Name, b.Value(r, c), dataset.MaxPort)
		}
		col := b.Column(tsIdx)
		for i, ts := range col {
			if have && ts < last {
				return 0, fmt.Errorf("netdpsyn: row %d: timestamp %d after %d — streaming synthesis needs a time-ordered trace", rows+i+1, ts, last)
			}
			last, have = ts, true
		}
		rows += b.NumRows()
	}
}

// FlowSchema returns the canonical flow-header schema
// ⟨srcip, dstip, srcport, dstport, proto, ts, td, pkt, byt, label⟩.
// labelField names the label column ("label", or "type" for TON-style
// data); extra fields are inserted before the label.
func FlowSchema(labelField string, extra ...Field) *Schema {
	return trace.FlowSchema(labelField, extra...)
}

// PacketSchema returns the canonical 15-attribute packet-header
// schema with the "flag" label.
func PacketSchema() *Schema {
	return trace.PacketSchema()
}

// LoadCSV reads a trace table with the given schema from CSV (the
// header must include every schema field).
func LoadCSV(r io.Reader, schema *Schema) (*Table, error) {
	return dataset.ReadCSV(r, schema)
}

// NewTable creates an empty trace table over a schema (n is a
// capacity hint). Programmatic producers — a capture loop publishing
// windows into a WindowFeed, for instance — build their tables here
// and append rows with Table.AppendRow.
func NewTable(schema *Schema, n int) *Table {
	return dataset.NewTable(schema, n)
}

// AttributeTVD computes the per-attribute marginal fidelity between a
// reference trace and a synthesized one: for every attribute the
// reference schema names, the total variation distance between the two
// empirical one-way marginals (0 = identical, 1 = disjoint). It
// returns the per-attribute map and the mean across attributes — the
// headline fidelity score the evaluation service reports and the
// quality trajectory tracks. Comparing against the raw trace is a
// raw-data query: callers metering a DP deployment must charge it like
// any other statistical release (comparing two releases is free
// post-processing).
func AttributeTVD(ref, synth *Table) (perAttr map[string]float64, mean float64, err error) {
	return AttributeTVDCounts(NewMarginalCounts(ref), NewMarginalCounts(synth))
}

// MarginalCounts memoizes a table's per-attribute one-way marginal
// histograms. A rolling comparison — each released window scored
// against the previous one, as the follow-mode quality trace does —
// re-tallies every table on both sides of consecutive comparisons if
// it works from raw tables; carrying the counts forward makes each
// window's histograms a build-once artifact. Columns tally lazily, on
// first use by a comparison.
type MarginalCounts struct {
	t       *Table
	decoded []map[string]float64
	numeric []map[int64]float64
}

// NewMarginalCounts wraps a table for memoized marginal comparisons.
// Nil stays nil, so callers can thread an optional previous window
// through without guarding.
func NewMarginalCounts(t *Table) *MarginalCounts {
	if t == nil {
		return nil
	}
	n := len(t.Schema().Names())
	return &MarginalCounts{
		t:       t,
		decoded: make([]map[string]float64, n),
		numeric: make([]map[int64]float64, n),
	}
}

// Table returns the wrapped table.
func (mc *MarginalCounts) Table() *Table { return mc.t }

func (mc *MarginalCounts) decodedCol(ci int) map[string]float64 {
	if mc.decoded[ci] == nil {
		mc.decoded[ci] = decodedCounts(mc.t, ci)
	}
	return mc.decoded[ci]
}

func (mc *MarginalCounts) numericCol(ci int) map[int64]float64 {
	if mc.numeric[ci] == nil {
		mc.numeric[ci] = stats.CountsOf(mc.t.Column(ci))
	}
	return mc.numeric[ci]
}

// AttributeTVDCounts is AttributeTVD over memoized histograms: the
// same scores, but tables wrapped in MarginalCounts are tallied at
// most once per column no matter how many comparisons they appear in.
func AttributeTVDCounts(ref, synth *MarginalCounts) (perAttr map[string]float64, mean float64, err error) {
	if ref == nil || ref.t.NumRows() == 0 || synth == nil || synth.t.NumRows() == 0 {
		return nil, 0, fmt.Errorf("netdpsyn: AttributeTVD needs two non-empty tables")
	}
	names := ref.t.Schema().Names()
	perAttr = make(map[string]float64, len(names))
	var sum float64
	for _, name := range names {
		ri := ref.t.Schema().Index(name)
		si := synth.t.Schema().Index(name)
		if si < 0 {
			return nil, 0, fmt.Errorf("netdpsyn: synthesized table lacks attribute %q", name)
		}
		d := columnTVD(ref, ri, synth, si)
		perAttr[name] = d
		sum += d
	}
	return perAttr, sum / float64(len(names)), nil
}

// columnTVD compares one attribute's empirical marginal across two
// tables. Categorical columns are dictionary-encoded per table (a
// table re-loaded from CSV assigns codes in first-appearance order),
// so they are compared by decoded value, never by raw code.
func columnTVD(a *MarginalCounts, ai int, b *MarginalCounts, bi int) float64 {
	if a.t.Dict(ai) != nil || b.t.Dict(bi) != nil {
		return stats.TVDCounts(a.decodedCol(ai), b.decodedCol(bi))
	}
	return stats.TVDCounts(a.numericCol(ai), b.numericCol(bi))
}

// decodedCounts tallies a column by decoded value; columns without a
// dictionary fall back to the numeric literal. It tallies by raw code
// first — one int-keyed map access per row instead of a string decode
// (or a FormatInt allocation) per row; the integer counts transfer to
// the string-keyed map exactly, so the result is bit-for-bit what the
// direct string tally produced.
func decodedCounts(t *Table, ci int) map[string]float64 {
	byCode := make(map[int64]float64)
	for _, v := range t.Column(ci) {
		byCode[v]++
	}
	out := make(map[string]float64, len(byCode))
	hasDict := t.Dict(ci) != nil
	for code, n := range byCode {
		if hasDict {
			out[t.CatValue(ci, code)] += n
		} else {
			out[strconv.FormatInt(code, 10)] += n
		}
	}
	return out
}

// RhoFromEpsDelta exposes the zCDP conversion used internally, for
// callers that want to reason about budgets.
func RhoFromEpsDelta(eps, delta float64) (float64, error) {
	return dp.RhoFromEpsDelta(eps, delta)
}

// EpsFromRhoDelta is the inverse conversion: the (ε, δ) guarantee
// implied by a cumulative ρ-zCDP spend at the given δ. Services that
// compose many releases track ρ additively and report the implied ε
// through this.
func EpsFromRhoDelta(rho, delta float64) (float64, error) {
	return dp.EpsFromRhoDelta(rho, delta)
}

// Accountant tracks zCDP budget consumption against a fixed total ρ.
// zCDP composes additively, so a long-lived service can hold one
// Accountant per dataset, spend the ρ of each release against it, and
// refuse releases that would overdraw — the pattern cmd/netdpsynd
// implements. The Accountant is not safe for concurrent use; wrap it
// in a mutex (see internal/serve.Budget).
type Accountant = dp.Accountant

// NewAccountant creates an accountant with the given total ρ budget.
func NewAccountant(rho float64) (*Accountant, error) {
	return dp.NewAccountant(rho)
}

// AnonymizeNote documents why plain anonymization is insufficient:
// see the internal/anonymize package for a CryptoPAn-style
// prefix-preserving anonymizer, and §2.1 of the paper for the
// linkage-attack argument that motivates DP synthesis instead.
const AnonymizeNote = "prefix-preserving anonymization is vulnerable to linkage attacks; prefer DP synthesis"

// ExampleConstraint re-exports the decode-time constraint type for
// advanced users extending the pipeline.
type ExampleConstraint = binning.GreaterEq
