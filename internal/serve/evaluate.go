package serve

import (
	"fmt"
	"log/slog"
	"math/rand/v2"
	"strconv"
	"time"

	netdpsyn "github.com/netdpsyn/netdpsyn"
	"github.com/netdpsyn/netdpsyn/internal/mia"
	"github.com/netdpsyn/netdpsyn/internal/ml"
	"github.com/netdpsyn/netdpsyn/internal/serve/persist"
	"github.com/netdpsyn/netdpsyn/internal/stats"
)

// Evaluation metric names accepted in EvaluationRequest.Metrics. Every
// one of them queries the RAW trace (the spooled source), so selecting
// any of them prices the evaluation like a release: one scalar ρ,
// charged at admission through the same ledger gate as synthesis.
// An empty metric set is the free tier — release-only statistics
// (row count, label entropy of the synthesized CSV), which are pure
// post-processing of an already-released artifact and cost ρ = 0 by
// the DP post-processing theorem.
const (
	MetricTVD = "tvd" // per-attribute total variation distance, synth vs raw
	MetricML  = "ml"  // downstream accuracy: train on synth, test on raw held-out
	MetricMIA = "mia" // membership inference advantage against the synth-trained model
)

// ErrEvalTargetNotDone marks an evaluation submitted against a job
// that has not finished successfully; the HTTP layer maps it to 409.
var ErrEvalTargetNotDone = fmt.Errorf("serve: evaluation target job is not done")

// ErrEvalResultGone marks an evaluation whose target's released CSV is
// no longer servable (evicted from the retention window); 410.
var ErrEvalResultGone = fmt.Errorf("serve: evaluation target's result is no longer servable")

// EvaluationRequest is the JSON body of POST /datasets/{id}/evaluate.
type EvaluationRequest struct {
	// JobID names the finished synthesis job whose release to score.
	JobID string `json:"job_id"`
	// Metrics selects the raw-touching scores: any subset of
	// {"tvd", "ml", "mia"}. Empty means release-only statistics, which
	// are free (ρ = 0): they read nothing but the already-released CSV.
	Metrics []string `json:"metrics,omitempty"`
	// Models names the downstream classifiers for ml/mia (default
	// ["DT"]). Valid names are ml.Models.
	Models []string `json:"models,omitempty"`
	// Epsilon/Delta price the raw-data pass: the evaluation charges
	// ρ = RhoFromEpsDelta(Epsilon, Delta) on the dataset's scalar
	// ledger axis when Metrics is non-empty. Zero values take the
	// pipeline defaults, mirroring SynthesisRequest.
	Epsilon float64 `json:"epsilon,omitempty"`
	Delta   float64 `json:"delta,omitempty"`
	// Seed drives the 80/20 raw train/test split and the classifier
	// seeds, so a re-run is reproducible.
	Seed uint64 `json:"seed,omitempty"`
}

// ReleaseStats are the free statistics of an evaluation: computed from
// the released CSV alone (post-processing, ρ = 0).
type ReleaseStats struct {
	Rows int `json:"rows"`
	// LabelEntropyBits is the Shannon entropy of the released label
	// column in bits (0 when the schema has no label field).
	LabelEntropyBits float64 `json:"label_entropy_bits"`
}

// FidelityResult is the marginal-fidelity score: per-attribute total
// variation distance between the raw and synthesized one-way
// marginals, and their mean.
type FidelityResult struct {
	PerAttrTVD map[string]float64 `json:"per_attr_tvd"`
	MeanTVD    float64            `json:"mean_tvd"`
}

// MLScore is one model's downstream-accuracy pair: train-on-synth
// accuracy against the raw held-out split, next to the
// train-on-raw baseline on the identical split.
type MLScore struct {
	SynthAccuracy float64 `json:"synth_accuracy"`
	RealAccuracy  float64 `json:"real_accuracy"`
}

// MIAScore is one model's membership-inference result against the
// synth-trained classifier: attack accuracy and the conventional
// advantage 2·(accuracy − ½). Advantage near 0 means the release does
// not let the attacker tell raw training members from non-members.
type MIAScore struct {
	Accuracy  float64 `json:"accuracy"`
	Advantage float64 `json:"advantage"`
}

// EvaluationResult is the structured evaluation block a finished
// evaluation job carries in its status (and its journaled terminal
// record, so it survives a restart).
type EvaluationResult struct {
	TargetJob string   `json:"target_job"`
	Metrics   []string `json:"metrics,omitempty"`
	Seed      uint64   `json:"seed"`
	// RhoCharged is what this evaluation spent on the scalar ledger
	// axis: 0 for release-only runs, RhoFromEpsDelta(ε, δ) when any
	// raw-touching metric was selected.
	RhoCharged float64             `json:"rho_charged"`
	Release    ReleaseStats        `json:"release"`
	Fidelity   *FidelityResult     `json:"fidelity,omitempty"`
	ML         map[string]MLScore  `json:"ml,omitempty"`
	MIA        map[string]MIAScore `json:"mia,omitempty"`
}

// normalizeEvalRequest validates the metric and model sets and fills
// defaults. Returned metrics are deduplicated in canonical order.
func normalizeEvalRequest(req *EvaluationRequest) error {
	seen := map[string]bool{}
	for _, m := range req.Metrics {
		switch m {
		case MetricTVD, MetricML, MetricMIA:
			seen[m] = true
		default:
			return fmt.Errorf("serve: unknown evaluation metric %q (want %s, %s, or %s)", m, MetricTVD, MetricML, MetricMIA)
		}
	}
	req.Metrics = req.Metrics[:0]
	for _, m := range []string{MetricTVD, MetricML, MetricMIA} {
		if seen[m] {
			req.Metrics = append(req.Metrics, m)
		}
	}
	if len(req.Models) == 0 {
		req.Models = []string{"DT"}
	}
	for _, name := range req.Models {
		ok := false
		for _, known := range ml.Models {
			if name == known {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("serve: unknown model %q (want one of %v)", name, ml.Models)
		}
	}
	return nil
}

// evalNeedsRaw reports whether any selected metric queries the raw
// trace — the pricing pivot: raw-touching evaluations charge ρ,
// release-only ones are free.
func evalNeedsRaw(metrics []string) bool { return len(metrics) > 0 }

// SubmitEvaluation admits an evaluation job against a finished
// synthesis job's release. Pricing is honest about what each metric
// reads: an empty metric set touches only the released CSV and
// charges nothing; any raw-touching metric (tvd/ml/mia) charges
// ρ = RhoFromEpsDelta(ε, δ) on the dataset's scalar ledger axis,
// journaled durably (an EvalChargeRecord) before the job runs — so a
// kill -9 mid-evaluation replays as a charged failure, never a
// refund. Evaluations are never cached: each admission is a fresh
// charge (two identical evaluations are two raw-data passes).
func (q *Queue) SubmitEvaluation(d *Dataset, target *Job, req EvaluationRequest) (*Job, error) {
	if err := normalizeEvalRequest(&req); err != nil {
		return nil, err
	}
	if target.DatasetID != d.ID {
		return nil, fmt.Errorf("serve: job %s belongs to dataset %s, not %s", target.ID, target.DatasetID, d.ID)
	}
	if target.Evaluate {
		return nil, fmt.Errorf("serve: job %s is itself an evaluation; evaluate a synthesis job", target.ID)
	}
	if target.State() != JobDone {
		return nil, fmt.Errorf("%w: job %s is %s", ErrEvalTargetNotDone, target.ID, target.State())
	}
	needsRaw := evalNeedsRaw(req.Metrics)
	if needsRaw && d.Feed() {
		return nil, fmt.Errorf("serve: dataset %s is a live window feed with no spooled source to compare against; only release-only evaluation (empty metrics) is supported", d.ID)
	}
	// Default the price like a synthesis admission would, so spelling
	// the defaults out and leaving them zero cost the same.
	dc := defaultEvalPrice()
	if req.Epsilon == 0 {
		req.Epsilon = dc.eps
	}
	if req.Delta == 0 {
		req.Delta = dc.delta
	}
	rho := 0.0
	if needsRaw {
		var err error
		if rho, err = netdpsyn.RhoFromEpsDelta(req.Epsilon, req.Delta); err != nil {
			return nil, err
		}
	}

	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, ErrQueueClosed
	}
	j := &Job{
		DatasetID:   d.ID,
		Rho:         rho,
		Evaluate:    true,
		TargetJobID: target.ID,
		evalReq:     req,
		cfg: netdpsyn.Config{
			Epsilon: req.Epsilon,
			Delta:   req.Delta,
			Seed:    req.Seed,
		},
	}
	// Charge-before-compute, same as synthesis: the journal fsync
	// happens inside ChargeEval before the spend is applied, and the
	// record is written even at ρ 0 so the job itself replays across a
	// restart.
	err := q.admitLocked(j, func() error {
		var rec *persist.EvalChargeRecord
		if q.store != nil {
			rec = &persist.EvalChargeRecord{
				JobID:     j.ID,
				DatasetID: d.ID,
				TargetJob: target.ID,
				Rho:       rho,
				Metrics:   req.Metrics,
				Models:    req.Models,
				Epsilon:   req.Epsilon,
				Delta:     req.Delta,
				Seed:      req.Seed,
				Submitted: j.Submitted,
			}
		}
		return d.Budget().ChargeEval(rho, rec)
	}, slog.String("target", target.ID), slog.Any("metrics", req.Metrics))
	if err != nil {
		return nil, err
	}
	return j, nil
}

// defaultEvalPrice returns the (ε, δ) defaults an evaluation request
// inherits when it leaves them zero — the same defaults a synthesis
// request gets, so an "evaluate at defaults" costs one default
// release.
func defaultEvalPrice() struct{ eps, delta float64 } {
	return struct{ eps, delta float64 }{eps: 1.0, delta: 1e-5}
}

// runEvaluate scores the target job's release. The free part reads
// only the released CSV; the charged part (already paid at admission)
// loads the raw spooled source and computes the selected raw-touching
// metrics. Any failure is a charged failure — the admission spend is
// never refunded (conservative: the raw pass may have partially
// happened).
func (q *Queue) runEvaluate(j *Job, d *Dataset) {
	start := time.Now()
	synth, err := q.loadReleasedTable(j.TargetJobID, d)
	if err != nil {
		q.fail(j, err)
		return
	}
	res := &EvaluationResult{
		TargetJob:  j.TargetJobID,
		Metrics:    j.evalReq.Metrics,
		Seed:       j.evalReq.Seed,
		RhoCharged: j.Rho,
		Release: ReleaseStats{
			Rows:             synth.NumRows(),
			LabelEntropyBits: labelEntropyBits(synth),
		},
	}
	if evalNeedsRaw(j.evalReq.Metrics) {
		raw, err := q.loadRawTable(d)
		if err != nil {
			q.fail(j, err)
			return
		}
		if err := scoreAgainstRaw(res, raw, synth, j.evalReq); err != nil {
			q.fail(j, err)
			return
		}
	}
	j.mu.Lock()
	j.evaluation = res
	j.mu.Unlock()
	q.metrics.recordEval(d.ID, res, time.Since(start))
	q.finishDone(j, synth.NumRows())
}

// loadReleasedTable materializes the target job's released CSV by
// decoding its result spool, the already-released artifact — reading
// it is free.
func (q *Queue) loadReleasedTable(targetID string, d *Dataset) (*netdpsyn.Table, error) {
	target, ok := q.Get(targetID)
	if !ok {
		return nil, fmt.Errorf("serve: evaluation target job %q disappeared", targetID)
	}
	if target.State() != JobDone {
		return nil, fmt.Errorf("%w: job %s is %s", ErrEvalTargetNotDone, targetID, target.State())
	}
	rs := target.Spool()
	if rs == nil || !rs.servable() {
		return nil, fmt.Errorf("%w: job %s (resubmit the identical synthesis request to regenerate it at zero charge, then evaluate)", ErrEvalResultGone, targetID)
	}
	rd, err := rs.NewReader()
	if err != nil {
		return nil, fmt.Errorf("serve: open released result of %s: %v", targetID, err)
	}
	defer rd.Close()
	return netdpsyn.LoadCSV(rd, d.Schema())
}

// loadRawTable materializes the raw source for the charged metrics:
// the registered table for in-memory datasets, the CSV spool for
// streaming ones. The admission already refused feed datasets.
func (q *Queue) loadRawTable(d *Dataset) (*netdpsyn.Table, error) {
	if !d.Streaming() {
		if t := d.Table(); t != nil {
			return t, nil
		}
		return nil, fmt.Errorf("serve: dataset %s holds no raw table to evaluate against", d.ID)
	}
	f, err := d.OpenSpool()
	if err != nil {
		return nil, fmt.Errorf("serve: open raw spool of %s: %v", d.ID, err)
	}
	defer f.Close()
	return netdpsyn.LoadCSV(f, d.Schema())
}

// scoreAgainstRaw fills in the raw-touching metrics. One raw pass
// serves all of them: the 80/20 split (seeded, reproducible) feeds
// both the ML baseline and the MIA member/non-member sets.
func scoreAgainstRaw(res *EvaluationResult, raw, synth *netdpsyn.Table, req EvaluationRequest) error {
	want := map[string]bool{}
	for _, m := range req.Metrics {
		want[m] = true
	}
	if want[MetricTVD] {
		perAttr, mean, err := netdpsyn.AttributeTVD(raw, synth)
		if err != nil {
			return err
		}
		res.Fidelity = &FidelityResult{PerAttrTVD: perAttr, MeanTVD: mean}
	}
	if !want[MetricML] && !want[MetricMIA] {
		return nil
	}
	rng := rand.New(rand.NewPCG(req.Seed, req.Seed^0x1f83d9abfb41bd6b))
	train, test := raw.Split(rng, 0.8)
	feats, err := evalFeatures(raw, train, test, synth)
	if err != nil {
		return err
	}
	if want[MetricML] {
		res.ML = make(map[string]MLScore, len(req.Models))
	}
	if want[MetricMIA] {
		res.MIA = make(map[string]MIAScore, len(req.Models))
	}
	for _, model := range req.Models {
		if want[MetricML] {
			synthAcc, err := ml.EvaluateAccuracy(model, feats.synthX, feats.synthY, feats.testX, feats.testY, feats.k, req.Seed)
			if err != nil {
				return err
			}
			realAcc, err := ml.EvaluateAccuracy(model, feats.trainX, feats.trainY, feats.testX, feats.testY, feats.k, req.Seed)
			if err != nil {
				return err
			}
			res.ML[model] = MLScore{SynthAccuracy: synthAcc, RealAccuracy: realAcc}
		}
		if want[MetricMIA] {
			att, err := mia.AttackTrainedOn(model, feats.synthX, feats.synthY, feats.k,
				feats.trainX, feats.trainY, feats.testX, feats.testY, req.Seed)
			if err != nil {
				return err
			}
			res.MIA[model] = MIAScore{Accuracy: att.Accuracy, Advantage: att.Advantage()}
		}
	}
	return nil
}

// evalFeatures is the shared feature extraction of the ML and MIA
// metrics: raw train/test splits and the synthesized table, all with
// label and categorical feature codes aligned to the raw table's
// dictionaries (a release decoded from its result spool assigns codes
// in first-appearance order, so without the alignment its features
// would not mean what the raw splits' features mean).
type evalFeatureSet struct {
	trainX, testX, synthX [][]float64
	trainY, testY, synthY []int
	k                     int
}

func evalFeatures(rawRef, train, test, synth *netdpsyn.Table) (*evalFeatureSet, error) {
	fs := &evalFeatureSet{}
	var kTrain, kTest, kSynth int
	var err error
	if fs.trainX, fs.trainY, kTrain, err = ml.Features(train); err != nil {
		return nil, err
	}
	if aligned := ml.AlignLabels(rawRef, train); aligned != nil {
		fs.trainY = aligned
	}
	if fs.testX, fs.testY, kTest, err = ml.Features(test); err != nil {
		return nil, err
	}
	if aligned := ml.AlignLabels(rawRef, test); aligned != nil {
		fs.testY = aligned
	}
	if fs.synthX, fs.synthY, kSynth, err = ml.Features(synth); err != nil {
		return nil, err
	}
	ml.AlignFeatures(rawRef, synth, fs.synthX)
	if aligned := ml.AlignLabels(rawRef, synth); aligned != nil {
		fs.synthY = aligned
	}
	fs.k = kTrain
	if kTest > fs.k {
		fs.k = kTest
	}
	if kSynth > fs.k {
		fs.k = kSynth
	}
	if li := rawRef.Schema().LabelIndex(); li >= 0 {
		if d := rawRef.Dict(li); d != nil && d.Len() > fs.k {
			fs.k = d.Len()
		}
	}
	if len(fs.trainX) == 0 || len(fs.testX) == 0 || len(fs.synthX) == 0 {
		return nil, fmt.Errorf("serve: empty train/test/synth split — too few rows to evaluate")
	}
	return fs, nil
}

// labelEntropyBits is the Shannon entropy (bits) of a table's label
// column, decoded through its dictionary; 0 when the schema has no
// label field or the table is empty. A release-only statistic: it
// reads nothing but the released table.
func labelEntropyBits(t *netdpsyn.Table) float64 {
	li := t.Schema().LabelIndex()
	if li < 0 || t.NumRows() == 0 {
		return 0
	}
	// Tally by raw code first: one int-keyed map access per row
	// instead of a dictionary decode (and, for dictionary-less
	// columns, an fmt.Sprintf allocation) per row. The entropy of the
	// distribution is invariant under relabeling, and the integer
	// counts convert to float64 exactly, so the result is bit-for-bit
	// what the string-keyed tally produced.
	byCode := make(map[int64]float64)
	for _, code := range t.Column(li) {
		byCode[code]++
	}
	hasDict := t.Dict(li) != nil
	counts := make(map[string]float64, len(byCode))
	for code, n := range byCode {
		if hasDict {
			counts[t.CatValue(li, code)] += n
		} else {
			counts[strconv.FormatInt(code, 10)] += n
		}
	}
	return stats.EntropyCounts(counts)
}

// WindowQuality is the free rolling-quality entry a follow job's
// window trace carries: released-window statistics only (row count,
// label entropy, drift vs the previous released window) — pure
// post-processing of already-released artifacts, so it charges
// nothing. Raw-touching fidelity needs the charged POST
// /datasets/{id}/evaluate.
type WindowQuality struct {
	Rows             int     `json:"rows"`
	LabelEntropyBits float64 `json:"label_entropy_bits"`
	// DriftTVD is the mean per-attribute TVD between this released
	// window and the previous one (absent on the first window): a
	// distribution-shift signal over the live stream.
	DriftTVD *float64 `json:"drift_tvd,omitempty"`
}

// windowQuality computes one released window's quality entry against
// the previously released window (nil for the first). Both sides
// arrive as memoized MarginalCounts so the drift comparison tallies
// each window's histograms once across the whole rolling sequence —
// cur becomes the next window's prev with its counts already built.
func windowQuality(prev, cur *netdpsyn.MarginalCounts) *WindowQuality {
	wq := &WindowQuality{
		Rows:             cur.Table().NumRows(),
		LabelEntropyBits: labelEntropyBits(cur.Table()),
	}
	if prev != nil && prev.Table().NumRows() > 0 && cur.Table().NumRows() > 0 {
		if _, mean, err := netdpsyn.AttributeTVDCounts(prev, cur); err == nil {
			wq.DriftTVD = &mean
		}
	}
	return wq
}
