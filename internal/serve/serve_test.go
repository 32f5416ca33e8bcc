package serve_test

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	netdpsyn "github.com/netdpsyn/netdpsyn"
	"github.com/netdpsyn/netdpsyn/internal/datagen"
	"github.com/netdpsyn/netdpsyn/internal/serve"
)

// newTestServer builds a Server, failing the test on wiring errors.
func newTestServer(t *testing.T, opts serve.Options) *serve.Server {
	t.Helper()
	s, err := serve.NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// flowCSV renders a small emulated TON flow trace as CSV.
func flowCSV(t *testing.T, rows int) (string, string) {
	t.Helper()
	return flowCSVSeed(t, rows, 7)
}

// flowCSVSeed is flowCSV from a chosen data seed.
func flowCSVSeed(t *testing.T, rows int, seed uint64) (string, string) {
	t.Helper()
	raw, err := datagen.Generate(datagen.TON, datagen.Config{Rows: rows, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := raw.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), datagen.LabelField(datagen.TON)
}

func getJSON(t *testing.T, client *http.Client, url string, out any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, client *http.Client, url string, body any, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s (%d: %s): %v", url, resp.StatusCode, raw, err)
		}
	}
	return resp.StatusCode
}

// pollJob polls GET /jobs/{id} until the job reaches a terminal
// state.
func pollJob(t *testing.T, client *http.Client, base, id string) serve.JobInfo {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var info serve.JobInfo
		if code := getJSON(t, client, base+"/jobs/"+id, &info); code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d", id, code)
		}
		if info.State == serve.JobDone || info.State == serve.JobFailed {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 60s", id, info.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEndToEnd is the acceptance walkthrough: register a dataset, run
// two synthesis jobs concurrently, watch cumulative ρ grow on the
// budget endpoint, see a request past the ceiling rejected with 403,
// and see a cached identical request come back without new spend.
func TestEndToEnd(t *testing.T) {
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 2, Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	// Ceiling 2.5× the per-job charge: two jobs fit, a third does not.
	jobRho, err := netdpsyn.RhoFromEpsDelta(1.0, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	ceiling := 2.5 * jobRho

	csvBody, label := flowCSV(t, 300)
	url := fmt.Sprintf("%s/datasets?schema=flow&label=%s&name=ton-test&budget_rho=%g&budget_delta=1e-5", ts.URL, label, ceiling)
	resp, err := client.Post(url, "text/csv", strings.NewReader(csvBody))
	if err != nil {
		t.Fatal(err)
	}
	var info serve.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register = %d", resp.StatusCode)
	}
	if info.Rows != 300 {
		t.Fatalf("registered rows = %d, want 300", info.Rows)
	}
	if math.Abs(info.Budget.CeilingRho-ceiling) > 1e-12 {
		t.Fatalf("ceiling ρ = %v, want %v", info.Budget.CeilingRho, ceiling)
	}
	if info.Budget.SpentRho != 0 {
		t.Fatalf("fresh dataset has spent ρ = %v", info.Budget.SpentRho)
	}
	dsURL := ts.URL + "/datasets/" + info.ID

	// Two concurrent jobs at ε = 1 with different seeds.
	req := serve.SynthesisRequest{Epsilon: 1.0, Delta: 1e-5, Iterations: 3, Seed: 11}
	var ack1, ack2 serve.SynthesisResponse
	if code := postJSON(t, client, dsURL+"/synthesize", req, &ack1); code != http.StatusAccepted {
		t.Fatalf("synthesize #1 = %d", code)
	}
	var budget serve.Status
	getJSON(t, client, dsURL+"/budget", &budget)
	if math.Abs(budget.SpentRho-jobRho) > 1e-12 {
		t.Fatalf("after job 1: spent ρ = %v, want %v", budget.SpentRho, jobRho)
	}

	req2 := req
	req2.Seed = 12
	if code := postJSON(t, client, dsURL+"/synthesize", req2, &ack2); code != http.StatusAccepted {
		t.Fatalf("synthesize #2 = %d", code)
	}
	getJSON(t, client, dsURL+"/budget", &budget)
	if math.Abs(budget.SpentRho-2*jobRho) > 1e-12 {
		t.Fatalf("after job 2: spent ρ = %v, want %v", budget.SpentRho, 2*jobRho)
	}
	if budget.Releases != 2 {
		t.Fatalf("releases = %d, want 2", budget.Releases)
	}
	if budget.EpsSpent <= 0 || budget.EpsSpent >= budget.EpsCeiling {
		t.Fatalf("implied ε spent %v should be positive and under the ceiling %v", budget.EpsSpent, budget.EpsCeiling)
	}

	// A third distinct release would cross the ceiling: 403, ledger
	// untouched.
	req3 := req
	req3.Seed = 13
	var apiErr struct {
		Error string `json:"error"`
	}
	if code := postJSON(t, client, dsURL+"/synthesize", req3, &apiErr); code != http.StatusForbidden {
		t.Fatalf("over-ceiling synthesize = %d, want 403", code)
	}
	if !strings.Contains(apiErr.Error, "budget") {
		t.Fatalf("403 error should mention the budget, got %q", apiErr.Error)
	}
	getJSON(t, client, dsURL+"/budget", &budget)
	if math.Abs(budget.SpentRho-2*jobRho) > 1e-12 {
		t.Fatalf("rejected request changed spent ρ to %v", budget.SpentRho)
	}

	// Both admitted jobs finish.
	info1 := pollJob(t, client, ts.URL, ack1.JobID)
	info2 := pollJob(t, client, ts.URL, ack2.JobID)
	for _, ji := range []serve.JobInfo{info1, info2} {
		if ji.State != serve.JobDone {
			t.Fatalf("job %s = %s (%s)", ji.ID, ji.State, ji.Error)
		}
		if ji.Records <= 0 {
			t.Fatalf("job %s synthesized %d records", ji.ID, ji.Records)
		}
		if len(ji.Stages) == 0 {
			t.Fatalf("job %s has no stage timings", ji.ID)
		}
	}

	// An identical request is served from cache: same job id, no new
	// spend.
	var cached serve.SynthesisResponse
	if code := postJSON(t, client, dsURL+"/synthesize", req, &cached); code != http.StatusAccepted {
		t.Fatalf("cached synthesize = %d", code)
	}
	if !cached.Cached || cached.JobID != ack1.JobID {
		t.Fatalf("identical request: cached=%v job=%s, want cache hit on %s", cached.Cached, cached.JobID, ack1.JobID)
	}
	getJSON(t, client, dsURL+"/budget", &budget)
	if math.Abs(budget.SpentRho-2*jobRho) > 1e-12 {
		t.Fatalf("cache hit changed spent ρ to %v", budget.SpentRho)
	}

	// The finished trace comes back as CSV with the input header.
	res, err := client.Get(ts.URL + "/jobs/" + ack1.JobID + "/result.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("result.csv = %d", res.StatusCode)
	}
	records, err := csv.NewReader(res.Body).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) < 2 {
		t.Fatalf("result.csv has %d rows", len(records))
	}
	// The output schema is the registered one (extra CSV columns the
	// schema doesn't name are dropped at load).
	wantHeader := netdpsyn.FlowSchema(label).Names()
	if strings.Join(records[0], ",") != strings.Join(wantHeader, ",") {
		t.Fatalf("result header = %v, want %v", records[0], wantHeader)
	}
}

func TestRequestValidation(t *testing.T) {
	s := newTestServer(t, serve.Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	// Unknown schema.
	resp, err := client.Post(ts.URL+"/datasets?schema=bogus", "text/csv", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus schema = %d, want 400", resp.StatusCode)
	}

	// CSV missing schema fields.
	resp, err = client.Post(ts.URL+"/datasets?schema=flow", "text/csv", strings.NewReader("a,b\n1,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("schema-less CSV = %d, want 400", resp.StatusCode)
	}

	// Valid register, then invalid synthesis configs must 400 without
	// touching the ledger.
	csvBody, label := flowCSV(t, 120)
	resp, err = client.Post(ts.URL+"/datasets?label="+label, "text/csv", strings.NewReader(csvBody))
	if err != nil {
		t.Fatal(err)
	}
	var info serve.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	dsURL := ts.URL + "/datasets/" + info.ID

	bad := []serve.SynthesisRequest{
		{Tau: 1.5},
		{Epsilon: -1},
		{Delta: 2},
		{Iterations: -3},
	}
	for _, req := range bad {
		if code := postJSON(t, client, dsURL+"/synthesize", req, nil); code != http.StatusBadRequest {
			t.Fatalf("bad request %+v = %d, want 400", req, code)
		}
	}
	var budget serve.Status
	getJSON(t, client, dsURL+"/budget", &budget)
	if budget.SpentRho != 0 || budget.Releases != 0 {
		t.Fatalf("invalid requests charged the ledger: %+v", budget)
	}

	// Budget parameters must parse strictly: trailing garbage on the
	// security-critical ceiling is a 400, not a half-parsed number.
	for _, q := range []string{
		"budget_rho=0.05,", "budget_eps=8e", "budget_delta=1e-5x", // trailing garbage
		"budget_rho=NaN", "budget_rho=%2BInf", "budget_eps=NaN", "budget_delta=NaN", // non-finite: would disable the ceiling
	} {
		resp, err := client.Post(ts.URL+"/datasets?label="+label+"&"+q, "text/csv", strings.NewReader(csvBody))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", q, resp.StatusCode)
		}
	}

	// Unknown ids 404.
	if code := getJSON(t, client, ts.URL+"/jobs/job-999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", code)
	}
	if code := getJSON(t, client, ts.URL+"/datasets/ds-999/budget", nil); code != http.StatusNotFound {
		t.Fatalf("unknown dataset = %d, want 404", code)
	}
}

// TestOversizedRequestRefused pins the admission caps on a request's
// GUM rounds and synthetic records. Admitted, either would make the
// runner allocate past memory, a fatal error that takes the whole
// daemon down after the charge. Both must 400 with nothing charged,
// and the daemon keeps serving.
func TestOversizedRequestRefused(t *testing.T) {
	const maxRows = 1000
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 1, MaxWindowRows: maxRows})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	csvBody, label := flowCSV(t, 500)
	resp, err := client.Post(ts.URL+"/datasets?schema=flow&label="+label, "text/csv", strings.NewReader(csvBody))
	if err != nil {
		t.Fatal(err)
	}
	var info serve.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	dsURL := ts.URL + "/datasets/" + info.ID

	req := serve.SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 5, Records: maxRows, Seed: 3}
	for _, tc := range []struct {
		field      string
		iterations int
		records    int
	}{
		{"iterations", 1_000_001, maxRows},
		{"iterations", 1 << 40, maxRows},
		{"records", 5, maxRows + 1},
		{"records", 5, 1 << 40},
	} {
		bad := req
		bad.Iterations, bad.Records = tc.iterations, tc.records
		var apiErr struct {
			Error string `json:"error"`
		}
		if code := postJSON(t, client, dsURL+"/synthesize", bad, &apiErr); code != http.StatusBadRequest {
			t.Fatalf("iterations=%d records=%d: %d, want 400", tc.iterations, tc.records, code)
		}
		if !strings.Contains(apiErr.Error, tc.field) {
			t.Fatalf("iterations=%d records=%d: error %q should name %s", tc.iterations, tc.records, apiErr.Error, tc.field)
		}
	}
	var budget serve.Status
	getJSON(t, client, dsURL+"/budget", &budget)
	if budget.SpentRho != 0 || budget.Releases != 0 {
		t.Fatalf("refused requests charged the ledger: %+v", budget)
	}

	// At the caps' edge the request is admitted and completes.
	var ack serve.SynthesisResponse
	if code := postJSON(t, client, dsURL+"/synthesize", req, &ack); code != http.StatusAccepted {
		t.Fatalf("in-cap synthesize = %d", code)
	}
	if done := pollJob(t, client, ts.URL, ack.JobID); done.State != serve.JobDone || done.Records != maxRows {
		t.Fatalf("in-cap job = %s with %d records (%s), want done with %d", done.State, done.Records, done.Error, maxRows)
	}
	getJSON(t, client, dsURL+"/budget", &budget)
	if math.Abs(budget.SpentRho-ack.Rho) > 1e-12 || budget.Releases != 1 {
		t.Fatalf("after the in-cap job: %+v, want one release of ρ %v", budget, ack.Rho)
	}
}

// TestRegistryCap locks in the dataset cap: past MaxDatasets,
// registration answers 429 (each dataset pins its table in memory for
// the daemon's lifetime).
func TestRegistryCap(t *testing.T) {
	s := newTestServer(t, serve.Options{MaxDatasets: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	csvBody, label := flowCSV(t, 100)
	for i, want := range []int{http.StatusCreated, http.StatusTooManyRequests} {
		resp, err := client.Post(ts.URL+"/datasets?label="+label, "text/csv", strings.NewReader(csvBody))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("register #%d = %d, want %d", i+1, resp.StatusCode, want)
		}
	}
}

// TestCacheNormalization locks in that a request leaving fields zero
// and a request spelling out the pipeline defaults are the same
// release: one cache entry, one budget charge.
func TestCacheNormalization(t *testing.T) {
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	csvBody, label := flowCSV(t, 150)
	resp, err := client.Post(ts.URL+"/datasets?label="+label, "text/csv", strings.NewReader(csvBody))
	if err != nil {
		t.Fatal(err)
	}
	var info serve.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	dsURL := ts.URL + "/datasets/" + info.ID

	var first, second serve.SynthesisResponse
	if code := postJSON(t, client, dsURL+"/synthesize", serve.SynthesisRequest{}, &first); code != http.StatusAccepted {
		t.Fatalf("zero-config synthesize = %d", code)
	}
	explicit := serve.SynthesisRequest{Epsilon: 2.0, Delta: 1e-5, Iterations: 200, Tau: 0.1}
	if code := postJSON(t, client, dsURL+"/synthesize", explicit, &second); code != http.StatusAccepted {
		t.Fatalf("explicit-defaults synthesize = %d", code)
	}
	if !second.Cached || second.JobID != first.JobID {
		t.Fatalf("explicit defaults should cache-hit the zero config: cached=%v job=%s vs %s",
			second.Cached, second.JobID, first.JobID)
	}
	// Spelling out the default key attribute (the label field) is the
	// same release too.
	var third serve.SynthesisResponse
	withKey := explicit
	withKey.KeyAttr = label
	if code := postJSON(t, client, dsURL+"/synthesize", withKey, &third); code != http.StatusAccepted {
		t.Fatalf("explicit key_attr synthesize = %d", code)
	}
	if !third.Cached || third.JobID != first.JobID {
		t.Fatalf("explicit key_attr should cache-hit: cached=%v job=%s vs %s",
			third.Cached, third.JobID, first.JobID)
	}
	var budget serve.Status
	getJSON(t, client, dsURL+"/budget", &budget)
	if budget.Releases != 1 {
		t.Fatalf("releases = %d, want 1 (one charge for the equivalent requests)", budget.Releases)
	}
	pollJob(t, client, ts.URL, first.JobID)
}

// TestResultNotReady covers the poll-before-done path: a queued or
// running job's result endpoint answers 409, not a partial CSV.
func TestResultNotReady(t *testing.T) {
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	csvBody, label := flowCSV(t, 400)
	resp, err := client.Post(ts.URL+"/datasets?label="+label, "text/csv", strings.NewReader(csvBody))
	if err != nil {
		t.Fatal(err)
	}
	var info serve.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var ack serve.SynthesisResponse
	code := postJSON(t, client, ts.URL+"/datasets/"+info.ID+"/synthesize",
		serve.SynthesisRequest{Epsilon: 1, Iterations: 50, Seed: 5}, &ack)
	if code != http.StatusAccepted {
		t.Fatalf("synthesize = %d", code)
	}
	res, err := client.Get(ts.URL + "/jobs/" + ack.JobID + "/result.csv")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	// The job may legitimately have finished already on a fast
	// machine; only the not-done answer shape is under test.
	if res.StatusCode != http.StatusConflict && res.StatusCode != http.StatusOK {
		t.Fatalf("result.csv while pending = %d, want 409 (or 200 if already done)", res.StatusCode)
	}
	pollJob(t, client, ts.URL, ack.JobID)
}

// TestGracefulShutdown locks in the drain contract: jobs admitted
// (and budget-charged) before Shutdown complete, and admissions after
// it are refused.
func TestGracefulShutdown(t *testing.T) {
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 2, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	csvBody, label := flowCSV(t, 200)
	resp, err := client.Post(ts.URL+"/datasets?label="+label, "text/csv", strings.NewReader(csvBody))
	if err != nil {
		t.Fatal(err)
	}
	var info serve.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	dsURL := ts.URL + "/datasets/" + info.ID

	var ack serve.SynthesisResponse
	if code := postJSON(t, client, dsURL+"/synthesize",
		serve.SynthesisRequest{Epsilon: 1, Iterations: 3, Seed: 21}, &ack); code != http.StatusAccepted {
		t.Fatalf("synthesize = %d", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	j, err := s.WaitJob(ack.JobID, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Snapshot().State; got != serve.JobDone {
		t.Fatalf("job after drain = %s, want done", got)
	}
	// The HTTP mux still answers (httptest owns the listener), but the
	// queue refuses new admissions.
	if code := postJSON(t, client, dsURL+"/synthesize",
		serve.SynthesisRequest{Epsilon: 1, Iterations: 3, Seed: 22}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown synthesize = %d, want 503", code)
	}
}

// TestBudgetLedger unit-tests the ledger arithmetic directly.
func TestBudgetLedger(t *testing.T) {
	if _, err := serve.NewBudget(0, 1e-5); err == nil {
		t.Fatal("zero ceiling must error")
	}
	if _, err := serve.NewBudget(1, 1); err == nil {
		t.Fatal("delta = 1 must error")
	}
	b, err := serve.NewBudget(1.0, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ChargeAdmission(0.6, 0.6, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.ChargeAdmission(0.6, 0.6, nil); err == nil {
		t.Fatal("overdraw must error")
	}
	if err := b.ChargeAdmission(0.4, 0.4, nil); err != nil {
		t.Fatalf("exact remainder refused: %v", err)
	}
	st := b.Snapshot()
	if math.Abs(st.SpentRho-1.0) > 1e-9 || st.Releases != 2 {
		t.Fatalf("ledger state %+v", st)
	}

	// A ceiling of exactly k releases admits all k and refuses the
	// next, whatever rounding the running sum of charges picks up: at
	// ε = 0.1 the float sum of 43 charges lands above 43·ρ.
	rho, err := netdpsyn.RhoFromEpsDelta(0.1, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	const k = 43
	for _, tc := range []struct {
		name   string
		charge func(*serve.Budget) error
	}{
		{"ChargeAdmission", func(b *serve.Budget) error { return b.ChargeAdmission(rho, rho, nil) }},
		{"ChargeWindow", func(b *serve.Budget) error { return b.ChargeWindow(1000, 0, rho, nil) }},
	} {
		b, err := serve.NewBudget(k*rho, 1e-5)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= k; i++ {
			if err := tc.charge(b); err != nil {
				t.Fatalf("%s: charge %d under a ceiling of exactly %d: %v", tc.name, i, k, err)
			}
		}
		if err := tc.charge(b); !errors.Is(err, serve.ErrBudgetExceeded) {
			t.Fatalf("%s: charge %d under a ceiling of %d = %v, want ErrBudgetExceeded", tc.name, k+1, k, err)
		}
	}

	// The drift tolerance scales with the ceiling: under ρ = 1e-10 a
	// release ten times the ceiling is refused on every axis.
	tiny, err := serve.NewBudget(1e-10, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if err := tiny.ChargeAdmission(1e-9, 1e-9, nil); !errors.Is(err, serve.ErrBudgetExceeded) {
		t.Fatalf("ChargeAdmission of 10× a tiny ceiling = %v, want ErrBudgetExceeded", err)
	}
	if err := tiny.ChargeEval(1e-9, nil); !errors.Is(err, serve.ErrBudgetExceeded) {
		t.Fatalf("ChargeEval of 10× a tiny ceiling = %v, want ErrBudgetExceeded", err)
	}
	if err := tiny.ChargeWindow(1000, 0, 1e-9, nil); !errors.Is(err, serve.ErrBudgetExceeded) {
		t.Fatalf("ChargeWindow of 10× a tiny ceiling = %v, want ErrBudgetExceeded", err)
	}
	if st := tiny.Snapshot(); st.SpentRho != 0 || st.Releases != 0 {
		t.Fatalf("refused charges moved the ledger: %+v", st)
	}
}
