package core

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"time"

	"github.com/netdpsyn/netdpsyn/internal/binning"
	"github.com/netdpsyn/netdpsyn/internal/dataset"
	"github.com/netdpsyn/netdpsyn/internal/dp"
	"github.com/netdpsyn/netdpsyn/internal/marginal"
	"github.com/netdpsyn/netdpsyn/internal/trace"
)

// Config configures the full NetDPSyn pipeline.
type Config struct {
	// Epsilon and Delta form the (ε, δ)-DP target; the paper defaults
	// to ε = 2.0, δ = 1e-5.
	Epsilon, Delta float64
	// BudgetSplit divides the zCDP budget ρ between data-dependent
	// binning, marginal selection, and marginal publication; the
	// paper uses 0.1 / 0.1 / 0.8.
	BudgetSplit [3]float64
	// Binning tunes the pre-processing discretization.
	Binning binning.Config
	// GUM tunes the record-synthesis loop.
	GUM GUMConfig
	// KeyAttr names the attribute GUMMI initializes around (the
	// classification label). Empty selects the schema's label field.
	KeyAttr string
	// UseGUMMI selects marginal initialization (true, the NetDPSyn
	// default) or plain-GUM independent initialization (false; the
	// Figure 8 ablation).
	UseGUMMI bool
	// Tau is the protocol-rule probability threshold (paper: 0.1).
	Tau float64
	// CombineMaxCells bounds the size of merged multi-way marginals;
	// MaxCombineAttrs bounds their arity.
	CombineMaxCells float64
	MaxCombineAttrs int
	// SynthRecords fixes the synthetic record count; 0 derives it
	// from the noisy marginal totals.
	SynthRecords int
	// Seed makes the whole pipeline deterministic.
	Seed uint64
	// Workers bounds the staged engine's worker pool, which
	// parallelizes pair scoring, marginal publication, GUM update
	// planning, and windowed synthesis (≤ 0 means all available
	// cores, runtime.GOMAXPROCS(0)). The output is byte-identical
	// across worker counts for a fixed Seed: parallel tasks derive
	// their randomness from (Seed, stage, task index), never from
	// scheduling (see engine.go).
	Workers int
	// DisableTSDiff, DisableConsistency, and DisableProtocolRules
	// switch off individual NetDPSyn additions for ablation studies.
	DisableTSDiff        bool
	DisableConsistency   bool
	DisableProtocolRules bool
	// Metrics optionally wires engine-level observability (worker
	// occupancy, live per-stage timings) into every run of this
	// pipeline; nil disables it at zero cost. It never affects
	// synthesis output and is ignored by configuration identity.
	Metrics *EngineMetrics
}

// DefaultConfig returns the paper's default parameters.
func DefaultConfig() Config {
	return Config{
		Epsilon:         2.0,
		Delta:           1e-5,
		BudgetSplit:     [3]float64{0.1, 0.1, 0.8},
		Binning:         binning.DefaultConfig(),
		GUM:             DefaultGUMConfig(),
		UseGUMMI:        true,
		Tau:             0.1,
		CombineMaxCells: 1 << 18,
		MaxCombineAttrs: 3,
		Seed:            1,
	}
}

// Report carries diagnostics from a pipeline run.
type Report struct {
	Rho              float64
	RhoBin           float64
	RhoSelect        float64
	RhoPublish       float64
	SelectedSets     [][]string
	SelectionError   float64
	ConsistencyEdits int
	GUMErrors        []float64
	SynthRecords     int
	// Durations is the wall-clock time per named stage.
	Durations map[string]time.Duration
	// Stages refines Durations with the wall/busy split per stage, so
	// the speedup from Config.Workers is observable: Busy/Wall is the
	// effective parallelism the stage achieved.
	Stages map[string]StageTiming
	// Spans is the ordered trace of the run: one entry per executed
	// stage, in execution order, with absolute start times — the raw
	// material for a job-level trace where the Stages map only keeps
	// aggregates.
	Spans []StageSpan
}

// StageSpan is one ordered entry of a pipeline run's trace.
type StageSpan struct {
	// Name is the stage name (a synthStages entry).
	Name string
	// Start is the wall-clock instant the stage began.
	Start time.Time
	// Wall and Busy split the stage's cost as in StageTiming.
	Wall, Busy time.Duration
}

// Result is the output of a pipeline run.
type Result struct {
	// Table is the synthesized raw trace with the input schema
	// (minus the auxiliary tsdiff attribute).
	Table *dataset.Table
	// Encoded is the synthesized binned dataset.
	Encoded *dataset.Encoded
	// Encoder is the binning used, for callers that need to encode
	// further data in the same space.
	Encoder *binning.Encoder
	// Report carries diagnostics.
	Report Report
}

// Pipeline is a reusable NetDPSyn synthesizer.
type Pipeline struct {
	cfg Config
}

// NewPipeline validates the configuration and returns a pipeline.
func NewPipeline(cfg Config) (*Pipeline, error) {
	if cfg.Epsilon <= 0 || cfg.Delta <= 0 || cfg.Delta >= 1 {
		return nil, fmt.Errorf("core: invalid privacy target eps=%v delta=%v", cfg.Epsilon, cfg.Delta)
	}
	var s float64
	for _, w := range cfg.BudgetSplit {
		if w < 0 {
			return nil, fmt.Errorf("core: negative budget weight %v", w)
		}
		s += w
	}
	if s <= 0 {
		return nil, fmt.Errorf("core: empty budget split")
	}
	if cfg.GUM.Iterations <= 0 {
		return nil, fmt.Errorf("core: GUM iterations must be positive")
	}
	return &Pipeline{cfg: cfg}, nil
}

// synthState carries one run's intermediates between the named
// stages. Each stage reads the fields of its predecessors and fills
// its own; nothing outside the stage functions mutates it.
type synthState struct {
	input *dataset.Table
	// prep, when non-nil, is input's prepared form, handed in by the
	// caller; stagePreprocess prepares inline otherwise.
	prep *Prepared

	// stageBudget
	acct  *dp.Accountant
	parts []float64

	// stagePreprocess
	work    *dataset.Table
	hasTS   bool
	enc     *binning.Encoder
	encoded *dataset.Encoded
	oneWay  []*marginal.Marginal

	// stageSelect
	sets [][]int

	// stagePublish
	published []*marginal.Marginal

	// stagePostprocess
	nHat float64

	// stageRecordSynthesis
	synth *dataset.Encoded

	// stageDecode
	out *dataset.Table

	report Report
}

// synthStage is one named step of Algorithm 1. Stages run strictly in
// order; parallelism lives inside them, bounded by the engine.
type synthStage struct {
	name string
	fn   func(*Pipeline, *engine, *synthState) error
}

// synthStages is the stage sequence of Pipeline.Synthesize. The names
// key Report.Durations and Report.Stages.
var synthStages = []synthStage{
	{"preprocess", (*Pipeline).stagePreprocess},
	{"select", (*Pipeline).stageSelect},
	{"publish", (*Pipeline).stagePublish},
	{"postprocess", (*Pipeline).stagePostprocess},
	{"gum", (*Pipeline).stageRecordSynthesis},
	{"decode", (*Pipeline).stageDecode},
}

// Synthesize runs the full pipeline of Algorithm 1 on a raw trace
// table and returns the synthesized trace. The stages execute
// sequentially; their internal hot loops fan out over a worker pool
// sized by Config.Workers (see engine.go for the architecture and the
// determinism contract).
func (p *Pipeline) Synthesize(t *dataset.Table) (*Result, error) {
	return p.SynthesizeCtx(context.Background(), t)
}

// SynthesizeCtx is Synthesize with a context that parents the
// per-stage pprof labels: labels already on ctx (a serving daemon's
// job_kind/dataset, say) merge with each stage's "stage" label
// instead of being replaced, so `pprof -tagfocus
// dataset=X,stage=gum` slices engine work by both axes. The context
// carries labels only — it is not a cancellation signal.
func (p *Pipeline) SynthesizeCtx(ctx context.Context, t *dataset.Table) (*Result, error) {
	return p.synthesize(ctx, t, nil)
}

// synthesize is SynthesizeCtx starting from t's prepared form when prep
// is non-nil (see Prepared).
func (p *Pipeline) synthesize(ctx context.Context, t *dataset.Table, prep *Prepared) (*Result, error) {
	eng := newEngine(p.cfg.Workers)
	if p.cfg.Metrics != nil {
		eng.active = p.cfg.Metrics.ActiveWorkers
	}
	st := &synthState{
		input: t,
		prep:  prep,
		report: Report{
			Durations: make(map[string]time.Duration),
			Stages:    make(map[string]StageTiming),
		},
	}
	if err := p.stageBudget(st); err != nil {
		return nil, err
	}
	for _, s := range synthStages {
		// Each stage — bookkeeping and StageDone hook included — runs
		// under a pprof "stage" label: engine goroutines spawned inside
		// inherit it, so CPU profiles from the daemon's -pprof endpoint
		// attribute samples per stage out of the box
		// (`pprof -tagfocus stage=gum`). StageDone firing inside the
		// labeled region is part of the contract (obs tests read the
		// current goroutine's labels from the hook). Parenting the Do
		// on ctx preserves caller labels: pprof.Do REPLACES the
		// goroutine's label set with the ctx's plus the new ones, so a
		// Background parent here would wipe a daemon's job labels for
		// the stage and — via Do's deferred restore — for the rest of
		// the job.
		var err error
		pprof.Do(ctx, pprof.Labels("stage", s.name), func(context.Context) {
			start := time.Now()
			busy0 := eng.busyTime()
			if err = s.fn(p, eng, st); err != nil {
				return
			}
			wall := time.Since(start)
			busy := eng.busyTime() - busy0
			if busy == 0 {
				busy = wall // no parallel section: the stage ran single-threaded
			}
			st.report.Durations[s.name] += wall
			prev := st.report.Stages[s.name]
			st.report.Stages[s.name] = StageTiming{Wall: prev.Wall + wall, Busy: prev.Busy + busy}
			st.report.Spans = append(st.report.Spans, StageSpan{Name: s.name, Start: start, Wall: wall, Busy: busy})
			if p.cfg.Metrics != nil && p.cfg.Metrics.StageDone != nil {
				p.cfg.Metrics.StageDone(s.name, wall, busy)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return &Result{Table: st.out, Encoded: st.synth, Encoder: st.enc, Report: st.report}, nil
}

// stageBudget converts (ε, δ) to zCDP and splits the working budget.
func (p *Pipeline) stageBudget(st *synthState) error {
	cfg := p.cfg
	rho, err := dp.RhoFromEpsDelta(cfg.Epsilon, cfg.Delta)
	if err != nil {
		return err
	}
	acct, err := dp.NewAccountant(rho)
	if err != nil {
		return err
	}
	parts := acct.Split(cfg.BudgetSplit[0], cfg.BudgetSplit[1], cfg.BudgetSplit[2])
	st.acct, st.parts = acct, parts
	st.report.Rho, st.report.RhoBin, st.report.RhoSelect, st.report.RhoPublish = rho, parts[0], parts[1], parts[2]
	return nil
}

// Prepared is the data-only half of preprocessing for one table: the
// tsdiff augmentation and binning's first pass (binning.Prep). It
// depends on the table, DisableTSDiff and the first-pass binning
// fields alone — never on the seed or the budget — so a service that
// releases one registered trace again and again builds it once, and
// each release starts from noise. It is read-only once built and may
// be shared by concurrent runs.
type Prepared struct {
	input *dataset.Table
	// work is input with the tsdiff column (sharing input's columns),
	// or input itself.
	work          *dataset.Table
	disableTSDiff bool
	bins          *binning.Prep
}

// Prepare builds t's prepared form under cfg's DisableTSDiff and
// first-pass binning fields.
func Prepare(t *dataset.Table, cfg Config) (*Prepared, error) {
	work, err := withTSDiff(t, cfg)
	if err != nil {
		return nil, err
	}
	bins, err := binning.Prepare(work, cfg.Binning)
	if err != nil {
		return nil, err
	}
	return &Prepared{input: t, work: work, disableTSDiff: cfg.DisableTSDiff, bins: bins}, nil
}

// withTSDiff returns t with the auxiliary tsdiff column when t has
// timestamps and cfg keeps tsdiff, and t itself otherwise.
func withTSDiff(t *dataset.Table, cfg Config) (*dataset.Table, error) {
	if !t.Schema().Has(trace.FieldTS) || cfg.DisableTSDiff {
		return t, nil
	}
	work, err := binning.AddTSDiff(t, trace.FieldTS, trace.FieldTSDiff, fiveTuple(t.Schema()))
	if err != nil {
		return nil, fmt.Errorf("core: tsdiff: %w", err)
	}
	return work, nil
}

// stagePreprocess is steps 1–2 of Algorithm 1: temporal augmentation
// (tsdiff), data-dependent binning, and encoding. The binning pass
// also publishes the 1-way marginals this stage extracts. The
// data-only half comes from the run's Prepared when it was handed
// one, and is done here otherwise.
func (p *Pipeline) stagePreprocess(eng *engine, st *synthState) error {
	cfg := p.cfg
	prep := st.prep
	work := st.input
	switch {
	case prep == nil:
		var err error
		if work, err = withTSDiff(st.input, cfg); err != nil {
			return err
		}
	case prep.input != st.input:
		return fmt.Errorf("core: the prepared form was built for another table")
	case prep.disableTSDiff != cfg.DisableTSDiff:
		return fmt.Errorf("core: the prepared form was built with DisableTSDiff %v, the run has %v", prep.disableTSDiff, cfg.DisableTSDiff)
	default:
		work = prep.work
	}
	if err := st.acct.Spend(st.parts[0]); err != nil {
		return err
	}
	// Scale the per-attribute bin cap with the record count: a bin
	// needs tens of expected records to carry signal, and pair
	// marginals must stay small relative to n for GUM to fit them.
	// (At the paper's 1M-record scale the configured cap dominates.)
	binCfg := cfg.Binning
	if adaptive := work.NumRows() / 30; adaptive < binCfg.MaxBinsPerAttr {
		if adaptive < 32 {
			adaptive = 32
		}
		binCfg.MaxBinsPerAttr = adaptive
	}
	var enc *binning.Encoder
	var encoded *dataset.Encoded
	var err error
	if prep != nil {
		enc, encoded, err = prep.bins.Build(binCfg, st.parts[0], cfg.Seed^0xb1)
	} else {
		enc, encoded, err = binning.Build(work, binCfg, st.parts[0], cfg.Seed^0xb1)
	}
	if err != nil {
		return err
	}
	oneWay := make([]*marginal.Marginal, len(enc.Attrs))
	for i := range enc.Attrs {
		m := marginal.New([]int{i}, []int{enc.Attrs[i].Domain()})
		copy(m.Counts, enc.Attrs[i].NoisyCounts)
		m.Sigma = enc.Attrs[i].Sigma
		oneWay[i] = m
	}
	st.work, st.hasTS, st.enc, st.encoded, st.oneWay = work, st.input.Schema().Has(trace.FieldTS), enc, encoded, oneWay
	return nil
}

// stageSelect is step 3: DP pair scores and DenseMarg selection. The
// per-pair InDif computation — quadratic in attributes, linear in
// records — fans out over the pool; the 1-way counts every pair needs
// are tallied once, and each worker reuses one 2-way tally buffer.
func (p *Pipeline) stageSelect(eng *engine, st *synthState) error {
	cfg := p.cfg
	if err := st.acct.Spend(st.parts[1]); err != nil {
		return err
	}
	scores := marginal.NewPairScores(st.encoded.NumAttrs())
	scorer := marginal.NewInDifScorer(st.encoded)
	tallies := make([][]int32, eng.workers)
	eng.parallelForWorker(len(scores.Pairs), func(w, i int) {
		p := scores.Pairs[i]
		scores.Scores[i], tallies[w] = scorer.Score(p[0], p[1], tallies[w])
	})
	if err := scores.Perturb(st.parts[1], cfg.Seed^0xb2); err != nil {
		return err
	}
	capacity := 8 * float64(st.encoded.NumRows())
	sel := SelectMarginalsBounded(scores, st.encoded.Domains, st.parts[2], capacity, 3*st.encoded.NumAttrs())
	st.report.SelectionError = sel.TotalError
	combineCells := cfg.CombineMaxCells
	if combineCells > capacity {
		combineCells = capacity
	}
	st.sets = Combine(sel.Selected, st.encoded.Domains, combineCells, cfg.MaxCombineAttrs)
	for _, s := range st.sets {
		names := make([]string, len(s))
		for i, a := range s {
			names[i] = st.encoded.Names[a]
		}
		st.report.SelectedSets = append(st.report.SelectedSets, names)
	}
	return nil
}

// stagePublish is step 4: publish the selected marginals with
// ρ_i ∝ c_i^(2/3), each set computed and perturbed on its own worker.
func (p *Pipeline) stagePublish(eng *engine, st *synthState) error {
	if err := st.acct.Spend(st.parts[2]); err != nil {
		return err
	}
	published, err := publishSets(eng, st.encoded, st.sets, st.parts[2], p.cfg.Seed^0xb3)
	if err != nil {
		return err
	}
	st.published = published
	return nil
}

// stagePostprocess is step 5: simplex projection, cross-marginal
// consistency, and protocol-rule edits over the published marginals.
func (p *Pipeline) stagePostprocess(eng *engine, st *synthState) error {
	cfg := p.cfg
	all := append(append([]*marginal.Marginal(nil), st.oneWay...), st.published...)
	nHat := consensusTotal(all)
	for _, m := range all {
		m.NormSub(nHat)
	}
	if !cfg.DisableConsistency {
		if err := marginal.ConsistAttributes(all, 3); err != nil {
			return err
		}
		for _, m := range all {
			m.NormSub(nHat)
		}
	}
	if !cfg.DisableProtocolRules {
		rules := protocolRules(st.work, st.enc, cfg.Tau)
		edits, err := marginal.ApplyRules(all, rules)
		if err != nil {
			return err
		}
		st.report.ConsistencyEdits = edits
	}
	st.nHat = nHat
	return nil
}

// stageRecordSynthesis is step 6: GUMMI (or independent)
// initialization followed by the GUM update loop, whose per-marginal
// planning passes fan out over the pool.
func (p *Pipeline) stageRecordSynthesis(eng *engine, st *synthState) error {
	cfg := p.cfg
	nSynth := cfg.SynthRecords
	if nSynth <= 0 {
		nSynth = int(math.Round(st.nHat))
	}
	if nSynth < 1 {
		nSynth = 1
	}
	st.report.SynthRecords = nSynth

	var init *dataset.Encoded
	var err error
	if cfg.UseGUMMI {
		keyIdx := p.keyAttrIndex(st.work.Schema(), st.encoded)
		init, err = InitGUMMI(st.encoded.Names, st.encoded.Domains, st.oneWay, st.published, keyIdx, nSynth, cfg.Seed^0xb4)
	} else {
		init, err = InitIndependent(st.encoded.Names, st.encoded.Domains, st.oneWay, nSynth, cfg.Seed^0xb4)
	}
	if err != nil {
		return err
	}
	gcfg := cfg.GUM
	gcfg.Seed = cfg.Seed ^ 0xb5
	gum := NewGUM(st.published, nSynth, gcfg)
	st.report.GUMErrors = gum.run(init, eng)
	st.synth = init
	return nil
}

// stageDecode maps the synthesized binned dataset back to a raw trace
// table in the input schema.
func (p *Pipeline) stageDecode(eng *engine, st *synthState) error {
	cfg := p.cfg
	decodeOpts := binning.DecodeOptions{
		Seed:    cfg.Seed ^ 0xb6,
		GroupBy: fiveTuple(st.work.Schema()),
		DropAux: true,
		Constraints: []binning.GreaterEq{
			{A: trace.FieldByt, B: trace.FieldPkt},
		},
	}
	if st.hasTS {
		decodeOpts.TSField = trace.FieldTS
		if !cfg.DisableTSDiff {
			decodeOpts.TSDiffField = trace.FieldTSDiff
		}
	}
	out, err := st.enc.Decode(st.synth, decodeOpts)
	if err != nil {
		return err
	}
	st.out = out
	return nil
}

// fiveTuple returns the identifier fields present in the schema.
func fiveTuple(s *dataset.Schema) []string {
	var out []string
	for _, name := range []string{trace.FieldSrcIP, trace.FieldDstIP, trace.FieldSrcPort, trace.FieldDstPort, trace.FieldProto} {
		if s.Has(name) {
			out = append(out, name)
		}
	}
	return out
}

// keyAttrIndex resolves the GUMMI key attribute: explicit config,
// then the schema label field, then attribute 0.
func (p *Pipeline) keyAttrIndex(s *dataset.Schema, e *dataset.Encoded) int {
	if p.cfg.KeyAttr != "" {
		if i := e.Index(p.cfg.KeyAttr); i >= 0 {
			return i
		}
	}
	if li := s.LabelIndex(); li >= 0 {
		if i := e.Index(s.Fields[li].Name); i >= 0 {
			return i
		}
	}
	return 0
}

// publishSets computes and publishes the selected marginals under the
// unequal allocation ρ_i ∝ c_i^(2/3). Each set is independent — its
// noise seed is a pure function of the stage seed and set index — so
// the fan-out is deterministic for any worker count.
func publishSets(eng *engine, e *dataset.Encoded, sets [][]int, rhoPublish float64, seed uint64) ([]*marginal.Marginal, error) {
	if len(sets) == 0 {
		return nil, nil
	}
	cells := make([]float64, len(sets))
	var denom float64
	for i, s := range sets {
		cells[i] = cellsOf(e.Domains, s)
		denom += math.Pow(cells[i], 2.0/3.0)
	}
	out := make([]*marginal.Marginal, len(sets))
	err := eng.parallelForErr(len(sets), func(i int) error {
		rho := rhoPublish * math.Pow(cells[i], 2.0/3.0) / denom
		m := marginal.Compute(e, sets[i])
		pub, err := m.Publish(rho, seed+uint64(i)*104729)
		if err != nil {
			return err
		}
		out[i] = pub
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// consensusTotal estimates the record count from the noisy marginal
// totals, weighting each marginal by the inverse variance of its
// total (cells·σ²).
func consensusTotal(ms []*marginal.Marginal) float64 {
	var num, den float64
	for _, m := range ms {
		v := m.Sigma * m.Sigma * float64(m.Cells())
		if v <= 0 {
			v = 1e-6
		}
		w := 1 / v
		num += m.Total() * w
		den += w
	}
	if den <= 0 {
		return 0
	}
	t := num / den
	if t < 0 {
		return 0
	}
	return t
}

// protocolRules derives the τ-thresholded consistency rules from the
// schema and binning (§3.3): FTP/SSH control ports imply TCP, DNS on
// port 53 is not ICMP, and byt ≥ pkt.
func protocolRules(t *dataset.Table, enc *binning.Encoder, tau float64) []marginal.Rule {
	s := t.Schema()
	var rules []marginal.Rule
	attrIdx := func(name string) int { return s.Index(name) }

	protoIdx := attrIdx(trace.FieldProto)
	dportIdx := attrIdx(trace.FieldDstPort)
	if protoIdx >= 0 && dportIdx >= 0 {
		dict := t.Dict(protoIdx)
		tcp := -1
		if dict != nil {
			if c, ok := dict.Lookup("TCP"); ok {
				tcp = c
			}
		}
		if tcp >= 0 {
			dpBins := enc.Attrs[dportIdx].Bins
			tcpOnly := func(port int64) func(dp, pr int32) bool {
				return func(dp, pr int32) bool {
					b := dpBins[int(dp)]
					if b.Lo == port && b.Hi == port {
						return int(pr) == tcp
					}
					return true
				}
			}
			rules = append(rules,
				marginal.Rule{A: dportIdx, B: protoIdx, Allowed: tcpOnly(21), Tau: tau, Name: "ftp-requires-tcp"},
				marginal.Rule{A: dportIdx, B: protoIdx, Allowed: tcpOnly(22), Tau: tau, Name: "ssh-requires-tcp"},
			)
		}
	}

	bytIdx, pktIdx := attrIdx(trace.FieldByt), attrIdx(trace.FieldPkt)
	if bytIdx >= 0 && pktIdx >= 0 {
		bytBins := enc.Attrs[bytIdx].Bins
		pktBins := enc.Attrs[pktIdx].Bins
		rules = append(rules, marginal.Rule{
			A: bytIdx, B: pktIdx, Tau: 1.0, Name: "bytes-at-least-packets",
			Allowed: func(by, pk int32) bool {
				// A packet has at least one byte: impossible if even
				// the largest byte count in the bin is below the
				// smallest packet count.
				return bytBins[int(by)].Hi >= pktBins[int(pk)].Lo
			},
		})
	}
	return rules
}
