package serve_test

// Tests for evaluation-as-a-service: POST /datasets/{id}/evaluate
// scores a finished release, with honest budget accounting —
// release-only statistics are free post-processing, raw-touching
// metrics (tvd/ml/mia) charge ρ through the ledger exactly once, and
// the charge survives a restart (conservative, no refunds).

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	netdpsyn "github.com/netdpsyn/netdpsyn"
	"github.com/netdpsyn/netdpsyn/internal/obs/obstest"
	"github.com/netdpsyn/netdpsyn/internal/serve"
)

// registerAndSynthesize boots a dataset with the given ρ ceiling and
// runs one small synthesis job to completion, returning the dataset
// URL and the finished job's id.
func registerAndSynthesize(t *testing.T, ts *httptest.Server, ceiling float64) (string, string) {
	t.Helper()
	return registerAndSynthesizeSeed(t, ts, ceiling, 7)
}

// registerAndSynthesizeSeed is registerAndSynthesize over the 400-row
// trace generated from the given data seed.
func registerAndSynthesizeSeed(t *testing.T, ts *httptest.Server, ceiling float64, dataSeed uint64) (string, string) {
	t.Helper()
	client := ts.Client()
	csvBody, label := flowCSVSeed(t, 400, dataSeed)
	// strconv, not %g: a %g-rendered ceiling like 1e+09 loses its "+"
	// to query-string decoding and 400s.
	url := fmt.Sprintf("%s/datasets?schema=flow&label=%s&budget_rho=%s&budget_delta=1e-5",
		ts.URL, label, strconv.FormatFloat(ceiling, 'f', -1, 64))
	resp, err := client.Post(url, "text/csv", strings.NewReader(csvBody))
	if err != nil {
		t.Fatal(err)
	}
	var info serve.Info
	decodeBody(t, resp, &info)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register = %d", resp.StatusCode)
	}
	dsURL := ts.URL + "/datasets/" + info.ID
	var ack serve.SynthesisResponse
	req := serve.SynthesisRequest{Epsilon: 1.0, Delta: 1e-5, Iterations: 3, Seed: 11}
	if code := postJSON(t, client, dsURL+"/synthesize", req, &ack); code != http.StatusAccepted {
		t.Fatalf("synthesize = %d", code)
	}
	if ji := pollJob(t, client, ts.URL, ack.JobID); ji.State != serve.JobDone {
		t.Fatalf("synthesis job = %s (%s)", ji.State, ji.Error)
	}
	return dsURL, ack.JobID
}

func decodeBody(t *testing.T, resp *http.Response, out any) {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("decode (%d: %s): %v", resp.StatusCode, raw, err)
	}
}

// shutdownCtx bounds a test server drain.
func shutdownCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func spentRho(t *testing.T, client *http.Client, dsURL string) float64 {
	t.Helper()
	var budget serve.Status
	if code := getJSON(t, client, dsURL+"/budget", &budget); code != http.StatusOK {
		t.Fatalf("GET budget = %d", code)
	}
	return budget.SpentRho
}

func TestEvaluateEndToEnd(t *testing.T) {
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 2, Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	jobRho, err := netdpsyn.RhoFromEpsDelta(1.0, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	dsURL, synthID := registerAndSynthesize(t, ts, 10*jobRho)
	base := spentRho(t, client, dsURL)

	// Release-only evaluation: empty metric set, free (ρ = 0). It reads
	// nothing but the released CSV — post-processing of an artifact
	// already paid for.
	var freeAck serve.EvaluationResponse
	if code := postJSON(t, client, dsURL+"/evaluate", serve.EvaluationRequest{JobID: synthID}, &freeAck); code != http.StatusAccepted {
		t.Fatalf("release-only evaluate = %d", code)
	}
	if freeAck.Rho != 0 {
		t.Fatalf("release-only evaluation charged ρ = %v, want 0", freeAck.Rho)
	}
	free := pollJob(t, client, ts.URL, freeAck.JobID)
	if free.State != serve.JobDone {
		t.Fatalf("release-only evaluation = %s (%s)", free.State, free.Error)
	}
	if free.Kind != "evaluate" || free.TargetJob != synthID {
		t.Fatalf("kind/target = %q/%q, want evaluate/%s", free.Kind, free.TargetJob, synthID)
	}
	if free.Evaluation == nil || free.Evaluation.Release.Rows <= 0 {
		t.Fatalf("release-only evaluation has no release stats: %+v", free.Evaluation)
	}
	if free.Evaluation.Release.LabelEntropyBits < 0 {
		t.Fatalf("label entropy = %v", free.Evaluation.Release.LabelEntropyBits)
	}
	if got := spentRho(t, client, dsURL); math.Abs(got-base) > 1e-12 {
		t.Fatalf("release-only evaluation moved spend %v → %v", base, got)
	}

	// Full evaluation: tvd + ml + mia query the raw trace, so the
	// ledger is charged RhoFromEpsDelta(ε, δ) — exactly once.
	evalReq := serve.EvaluationRequest{
		JobID:   synthID,
		Metrics: []string{"tvd", "ml", "mia"},
		Models:  []string{"DT"},
		Epsilon: 1.0, Delta: 1e-5, Seed: 42,
	}
	var ack serve.EvaluationResponse
	if code := postJSON(t, client, dsURL+"/evaluate", evalReq, &ack); code != http.StatusAccepted {
		t.Fatalf("evaluate = %d", code)
	}
	if math.Abs(ack.Rho-jobRho) > 1e-12 {
		t.Fatalf("evaluation ρ = %v, want %v", ack.Rho, jobRho)
	}
	if got := spentRho(t, client, dsURL); math.Abs(got-(base+jobRho)) > 1e-12 {
		t.Fatalf("after raw evaluation: spent ρ = %v, want %v", got, base+jobRho)
	}
	ji := pollJob(t, client, ts.URL, ack.JobID)
	if ji.State != serve.JobDone {
		t.Fatalf("evaluation = %s (%s)", ji.State, ji.Error)
	}
	ev := ji.Evaluation
	if ev == nil {
		t.Fatal("finished evaluation has no evaluation block")
	}
	if math.Abs(ev.RhoCharged-jobRho) > 1e-12 {
		t.Fatalf("evaluation block ρ = %v, want %v", ev.RhoCharged, jobRho)
	}
	if ev.Fidelity == nil || ev.Fidelity.MeanTVD < 0 || ev.Fidelity.MeanTVD > 1 {
		t.Fatalf("mean TVD out of [0,1]: %+v", ev.Fidelity)
	}
	if len(ev.Fidelity.PerAttrTVD) == 0 {
		t.Fatal("per-attribute TVD map is empty")
	}
	dt, ok := ev.ML["DT"]
	if !ok || dt.SynthAccuracy < 0 || dt.SynthAccuracy > 1 || dt.RealAccuracy < 0 || dt.RealAccuracy > 1 {
		t.Fatalf("DT accuracy out of [0,1]: %+v", ev.ML)
	}
	m, ok := ev.MIA["DT"]
	if !ok || m.Advantage < -1 || m.Advantage > 1 {
		t.Fatalf("DT MIA advantage out of [-1,1]: %+v", ev.MIA)
	}
	if math.Abs(m.Advantage-2*(m.Accuracy-0.5)) > 1e-12 {
		t.Fatalf("advantage %v inconsistent with accuracy %v", m.Advantage, m.Accuracy)
	}

	// A second identical raw evaluation is a second raw pass: no cache,
	// a second charge.
	var ack2 serve.EvaluationResponse
	if code := postJSON(t, client, dsURL+"/evaluate", evalReq, &ack2); code != http.StatusAccepted {
		t.Fatalf("second evaluate = %d", code)
	}
	if ack2.JobID == ack.JobID {
		t.Fatal("evaluations must never be cached")
	}
	if got := spentRho(t, client, dsURL); math.Abs(got-(base+2*jobRho)) > 1e-12 {
		t.Fatalf("second evaluation: spent ρ = %v, want %v", got, base+2*jobRho)
	}
	pollJob(t, client, ts.URL, ack2.JobID)

	// result.csv on an evaluation job is a category error, not a CSV.
	resp, err := client.Get(ts.URL + "/jobs/" + ack.JobID + "/result.csv")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("evaluation result.csv = %d, want 400", resp.StatusCode)
	}

	// The eval metric families render and the whole exposition stays
	// grammar-valid.
	mresp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	exposition := string(body)
	if err := obstest.ValidateExposition(strings.NewReader(exposition)); err != nil {
		t.Fatalf("exposition invalid after evaluations: %v", err)
	}
	for _, fam := range []string{
		"netdpsynd_eval_runs_total",
		"netdpsynd_eval_seconds",
		"netdpsynd_eval_tvd_mean",
		"netdpsynd_eval_ml_accuracy",
		"netdpsynd_eval_mia_advantage",
	} {
		if !strings.Contains(exposition, fam) {
			t.Fatalf("exposition lacks %s", fam)
		}
	}
}

func TestEvaluateBudgetCeiling(t *testing.T) {
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	jobRho, err := netdpsyn.RhoFromEpsDelta(1.0, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	// Room for the synthesis and half an evaluation: the raw-touching
	// evaluation must 403 and leave the ledger untouched.
	dsURL, synthID := registerAndSynthesize(t, ts, 1.5*jobRho)
	base := spentRho(t, client, dsURL)

	var apiErr struct {
		Error string `json:"error"`
	}
	evalReq := serve.EvaluationRequest{JobID: synthID, Metrics: []string{"tvd"}, Epsilon: 1.0, Delta: 1e-5}
	if code := postJSON(t, client, dsURL+"/evaluate", evalReq, &apiErr); code != http.StatusForbidden {
		t.Fatalf("over-ceiling evaluate = %d, want 403", code)
	}
	if !strings.Contains(apiErr.Error, "budget") {
		t.Fatalf("403 should mention the budget, got %q", apiErr.Error)
	}
	if got := spentRho(t, client, dsURL); math.Abs(got-base) > 1e-12 {
		t.Fatalf("rejected evaluation moved spend %v → %v", base, got)
	}

	// Release-only evaluation still fits: it charges nothing.
	var ack serve.EvaluationResponse
	if code := postJSON(t, client, dsURL+"/evaluate", serve.EvaluationRequest{JobID: synthID}, &ack); code != http.StatusAccepted {
		t.Fatalf("release-only evaluate under a full ledger = %d", code)
	}
	if ji := pollJob(t, client, ts.URL, ack.JobID); ji.State != serve.JobDone {
		t.Fatalf("release-only evaluation = %s (%s)", ji.State, ji.Error)
	}
}

func TestEvaluateValidation(t *testing.T) {
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 2, Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	dsURL, synthID := registerAndSynthesize(t, ts, 1e9)

	cases := []struct {
		name string
		req  serve.EvaluationRequest
		want int
	}{
		{"missing job_id", serve.EvaluationRequest{}, http.StatusBadRequest},
		{"unknown job", serve.EvaluationRequest{JobID: "job-999"}, http.StatusNotFound},
		{"unknown metric", serve.EvaluationRequest{JobID: synthID, Metrics: []string{"psnr"}}, http.StatusBadRequest},
		{"unknown model", serve.EvaluationRequest{JobID: synthID, Metrics: []string{"ml"}, Models: []string{"XGB"}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code := postJSON(t, client, dsURL+"/evaluate", tc.req, nil); code != tc.want {
			t.Fatalf("%s: code = %d, want %d", tc.name, code, tc.want)
		}
	}

	// Evaluating an evaluation is a category error.
	var ack serve.EvaluationResponse
	if code := postJSON(t, client, dsURL+"/evaluate", serve.EvaluationRequest{JobID: synthID}, &ack); code != http.StatusAccepted {
		t.Fatalf("evaluate = %d", code)
	}
	pollJob(t, client, ts.URL, ack.JobID)
	if code := postJSON(t, client, dsURL+"/evaluate", serve.EvaluationRequest{JobID: ack.JobID}, nil); code != http.StatusBadRequest {
		t.Fatalf("evaluate-an-evaluation = %d, want 400", code)
	}
}

func TestEvaluateFollowJob(t *testing.T) {
	// A follow job against a live feed: evaluating it while running is
	// 409; raw-touching metrics against a feed dataset are refused
	// (there is no spooled raw source); release-only evaluation of the
	// sealed release works and is free — and the follow job's trace
	// carries the free rolling quality entries.
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 2, AllowVolatileFeed: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	csvBody, label := flowCSV(t, 300)
	span := flowSpan(t, csvBody, label, 3)
	cuts := cutBuckets(t, csvBody, label, span)
	if len(cuts) < 2 {
		t.Fatalf("need ≥ 2 buckets, got %d", len(cuts))
	}
	url := fmt.Sprintf("%s/datasets?schema=flow&label=%s&feed=1&span=%d&budget_rho=1000000", ts.URL, label, span)
	resp, err := client.Post(url, "text/csv", nil)
	if err != nil {
		t.Fatal(err)
	}
	var info serve.Info
	decodeBody(t, resp, &info)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("feed register = %d", resp.StatusCode)
	}
	dsURL := ts.URL + "/datasets/" + info.ID

	var ack serve.SynthesisResponse
	req := serve.SynthesisRequest{Epsilon: 1.0, Delta: 1e-5, Iterations: 2, Seed: 9, Follow: true}
	if code := postJSON(t, client, dsURL+"/synthesize", req, &ack); code != http.StatusAccepted {
		t.Fatalf("follow synthesize = %d", code)
	}
	for _, cut := range cuts {
		if _, code, body := putWindow(t, ts, info.ID, cut.bucket, cut.csv); code != http.StatusCreated {
			t.Fatalf("PUT window %d = %d (%s)", cut.bucket, code, body)
		}
	}
	waitWindowsDone(t, ts, ack.JobID, len(cuts))

	// Still running (feed unsealed): evaluation must 409.
	if code := postJSON(t, client, dsURL+"/evaluate", serve.EvaluationRequest{JobID: ack.JobID}, nil); code != http.StatusConflict {
		t.Fatalf("evaluate a running follow job = %d, want 409", code)
	}
	if code := sealFeed(t, ts, info.ID); code != http.StatusOK {
		t.Fatalf("seal = %d", code)
	}
	ji := pollJob(t, client, ts.URL, ack.JobID)
	if ji.State != serve.JobDone {
		t.Fatalf("follow job = %s (%s)", ji.State, ji.Error)
	}
	if ji.Kind != "follow" {
		t.Fatalf("follow job kind = %q", ji.Kind)
	}

	// Rolling quality: every released window carries the free entry,
	// and from the second window on it includes drift vs the previous.
	if len(ji.Trace) != len(cuts) {
		t.Fatalf("trace has %d entries, want %d", len(ji.Trace), len(cuts))
	}
	for i, tr := range ji.Trace {
		if tr.Quality == nil {
			t.Fatalf("window %d has no quality entry", i)
		}
		if tr.Quality.Rows <= 0 {
			t.Fatalf("window %d quality rows = %d", i, tr.Quality.Rows)
		}
		if i == 0 && tr.Quality.DriftTVD != nil {
			t.Fatal("first window cannot have drift")
		}
		if i > 0 {
			if tr.Quality.DriftTVD == nil {
				t.Fatalf("window %d lacks drift", i)
			}
			if d := *tr.Quality.DriftTVD; d < 0 || d > 1 {
				t.Fatalf("window %d drift = %v", i, d)
			}
		}
	}

	// Raw-touching metrics against a feed dataset: refused (400).
	var apiErr struct {
		Error string `json:"error"`
	}
	rawReq := serve.EvaluationRequest{JobID: ack.JobID, Metrics: []string{"tvd"}}
	if code := postJSON(t, client, dsURL+"/evaluate", rawReq, &apiErr); code != http.StatusBadRequest {
		t.Fatalf("raw evaluate on a feed = %d, want 400", code)
	}
	if !strings.Contains(apiErr.Error, "feed") {
		t.Fatalf("refusal should explain the feed, got %q", apiErr.Error)
	}

	// Release-only evaluation of the sealed follow release: free.
	base := spentRho(t, client, dsURL)
	var evAck serve.EvaluationResponse
	if code := postJSON(t, client, dsURL+"/evaluate", serve.EvaluationRequest{JobID: ack.JobID}, &evAck); code != http.StatusAccepted {
		t.Fatalf("release-only evaluate of follow job = %d", code)
	}
	evJi := pollJob(t, client, ts.URL, evAck.JobID)
	if evJi.State != serve.JobDone || evJi.Evaluation == nil || evJi.Evaluation.Release.Rows <= 0 {
		t.Fatalf("follow release evaluation: %s (%s) %+v", evJi.State, evJi.Error, evJi.Evaluation)
	}
	if got := spentRho(t, client, dsURL); math.Abs(got-base) > 1e-12 {
		t.Fatalf("free evaluation moved spend %v → %v", base, got)
	}
}

func TestEvaluateKindFilter(t *testing.T) {
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 2, Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	dsURL, synthID := registerAndSynthesize(t, ts, 1e9)

	var ack serve.EvaluationResponse
	if code := postJSON(t, client, dsURL+"/evaluate", serve.EvaluationRequest{JobID: synthID}, &ack); code != http.StatusAccepted {
		t.Fatalf("evaluate = %d", code)
	}
	pollJob(t, client, ts.URL, ack.JobID)

	var evals []serve.JobInfo
	if code := getJSON(t, client, ts.URL+"/jobs?kind=evaluate", &evals); code != http.StatusOK {
		t.Fatalf("list kind=evaluate = %d", code)
	}
	if len(evals) != 1 || evals[0].ID != ack.JobID || evals[0].Kind != "evaluate" {
		t.Fatalf("kind=evaluate listing = %+v", evals)
	}
	var synths []serve.JobInfo
	if code := getJSON(t, client, ts.URL+"/jobs?kind=synthesize", &synths); code != http.StatusOK {
		t.Fatalf("list kind=synthesize = %d", code)
	}
	if len(synths) != 1 || synths[0].ID != synthID {
		t.Fatalf("kind=synthesize listing = %+v", synths)
	}
	// Filters compose.
	var both []serve.JobInfo
	if code := getJSON(t, client, ts.URL+"/jobs?kind=evaluate&status=done", &both); code != http.StatusOK || len(both) != 1 {
		t.Fatalf("kind+status listing = %d, %+v", code, both)
	}
	if code := getJSON(t, client, ts.URL+"/jobs?kind=transmogrify", nil); code != http.StatusBadRequest {
		t.Fatalf("bad kind = %d, want 400", code)
	}
}

func TestEvaluateRestartDurability(t *testing.T) {
	// A finished evaluation survives a restart: the spend replays from
	// the EvalChargeRecord and the scores replay from the journaled
	// terminal — no raw re-read, no refund.
	dir := t.TempDir()
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 2, StateDir: dir})
	ts := httptest.NewServer(s.Handler())
	client := ts.Client()

	jobRho, err := netdpsyn.RhoFromEpsDelta(1.0, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	dsURL, synthID := registerAndSynthesize(t, ts, 10*jobRho)
	dsID := strings.TrimPrefix(dsURL, ts.URL+"/datasets/")

	evalReq := serve.EvaluationRequest{
		JobID:   synthID,
		Metrics: []string{"tvd", "mia"},
		Epsilon: 1.0, Delta: 1e-5, Seed: 7,
	}
	var ack serve.EvaluationResponse
	if code := postJSON(t, client, dsURL+"/evaluate", evalReq, &ack); code != http.StatusAccepted {
		t.Fatalf("evaluate = %d", code)
	}
	ji := pollJob(t, client, ts.URL, ack.JobID)
	if ji.State != serve.JobDone || ji.Evaluation == nil {
		t.Fatalf("evaluation before restart: %s (%s)", ji.State, ji.Error)
	}
	wantSpent := spentRho(t, client, dsURL)
	wantTVD := ji.Evaluation.Fidelity.MeanTVD
	ts.Close()
	if err := s.Shutdown(shutdownCtx(t)); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 2, StateDir: dir})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer func() { _ = s2.Shutdown(shutdownCtx(t)) }()
	client2 := ts2.Client()

	if got := spentRho(t, client2, ts2.URL+"/datasets/"+dsID); math.Abs(got-wantSpent) > 1e-12 {
		t.Fatalf("restart changed spend %v → %v", wantSpent, got)
	}
	var after serve.JobInfo
	if code := getJSON(t, client2, ts2.URL+"/jobs/"+ack.JobID, &after); code != http.StatusOK {
		t.Fatalf("GET evaluation after restart = %d", code)
	}
	if after.State != serve.JobDone || after.Kind != "evaluate" {
		t.Fatalf("after restart: state %s kind %q", after.State, after.Kind)
	}
	if after.Evaluation == nil || after.Evaluation.Fidelity == nil {
		t.Fatalf("evaluation block lost across restart: %+v", after.Evaluation)
	}
	if math.Abs(after.Evaluation.Fidelity.MeanTVD-wantTVD) > 1e-12 {
		t.Fatalf("restart changed mean TVD %v → %v", wantTVD, after.Evaluation.Fidelity.MeanTVD)
	}
	if math.Abs(after.Evaluation.RhoCharged-jobRho) > 1e-12 {
		t.Fatalf("restored ρ charged = %v, want %v", after.Evaluation.RhoCharged, jobRho)
	}
}

// TestEvaluateScoresIndependentOfReleaseCopy: the same release scores
// the same whether the evaluation decodes the result spool in the
// daemon that wrote it or the results/ file a restarted daemon
// recovered. (TestEvaluateScoresDecodedRelease checks that a decoded
// release scores like the synthesized table itself.)
func TestEvaluateScoresIndependentOfReleaseCopy(t *testing.T) {
	dir := t.TempDir()
	opts := serve.Options{MaxConcurrentJobs: 1, Workers: 1, StateDir: dir}
	jobRho, err := netdpsyn.RhoFromEpsDelta(1.0, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	evalReq := func(synthID string) serve.EvaluationRequest {
		return serve.EvaluationRequest{
			JobID:   synthID,
			Metrics: []string{"ml", "mia"},
			Models:  []string{"DT", "LR"},
			Epsilon: 1.0, Delta: 1e-5, Seed: 7,
		}
	}
	evaluate := func(ts *httptest.Server, dsURL, synthID string) *serve.EvaluationResult {
		t.Helper()
		var ack serve.EvaluationResponse
		if code := postJSON(t, ts.Client(), dsURL+"/evaluate", evalReq(synthID), &ack); code != http.StatusAccepted {
			t.Fatalf("evaluate = %d", code)
		}
		ji := pollJob(t, ts.Client(), ts.URL, ack.JobID)
		if ji.State != serve.JobDone || ji.Evaluation == nil {
			t.Fatalf("evaluation: %s (%s)", ji.State, ji.Error)
		}
		return ji.Evaluation
	}

	s := newTestServer(t, opts)
	ts := httptest.NewServer(s.Handler())
	dsURL, synthID := registerAndSynthesizeSeed(t, ts, 10*jobRho, 8)
	dsPath := strings.TrimPrefix(dsURL, ts.URL)
	inMemory := evaluate(ts, dsURL, synthID)
	ts.Close()
	if err := s.Shutdown(shutdownCtx(t)); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, opts)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer func() { _ = s2.Shutdown(shutdownCtx(t)) }()
	reRead := evaluate(ts2, ts2.URL+dsPath, synthID)

	for _, model := range evalReq(synthID).Models {
		if a, b := inMemory.ML[model], reRead.ML[model]; a != b {
			t.Errorf("%s ML scores: in memory %+v, re-read %+v", model, a, b)
		}
		if a, b := inMemory.MIA[model], reRead.MIA[model]; a != b {
			t.Errorf("%s MIA scores: in memory %+v, re-read %+v", model, a, b)
		}
	}
}
