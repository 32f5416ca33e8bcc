package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
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
	"github.com/netdpsyn/netdpsyn/internal/trace"
)

// sortedFlowCSV renders a time-ordered TON flow trace (streaming
// registration validates ts order).
func sortedFlowCSV(t *testing.T, rows int) (string, string) {
	t.Helper()
	raw, err := datagen.Generate(datagen.TON, datagen.Config{Rows: rows, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	raw = raw.SortBy(raw.Schema().Index(trace.FieldTS))
	var buf bytes.Buffer
	if err := raw.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), datagen.LabelField(datagen.TON)
}

// flowSpan loads the rendered CSV and returns a window span that cuts
// its ts range into roughly `parts` fixed time buckets.
func flowSpan(t *testing.T, csvBody, label string, parts int) int64 {
	t.Helper()
	table, err := netdpsyn.LoadCSV(strings.NewReader(csvBody), netdpsyn.FlowSchema(label))
	if err != nil {
		t.Fatal(err)
	}
	col := table.Column(table.Schema().Index(trace.FieldTS))
	lo, hi := col[0], col[0]
	for _, v := range col {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := (hi-lo)/int64(parts) + 1
	if span < 1 {
		span = 1
	}
	return span
}

func register(t *testing.T, ts *httptest.Server, query, body string) (serve.Info, int) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/datasets?"+query, "text/csv", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info serve.Info
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusCreated {
		if err := json.Unmarshal(raw, &info); err != nil {
			t.Fatalf("decode register (%s): %v", raw, err)
		}
	}
	return info, resp.StatusCode
}

func fetchCSV(t *testing.T, ts *httptest.Server, jobID string) (string, int) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/jobs/" + jobID + "/result.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read result.csv: %v", err)
	}
	return string(raw), resp.StatusCode
}

// checkOneCSV asserts a well-formed single-header CSV with at least
// minRows data rows.
func checkOneCSV(t *testing.T, body string, minRows int) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines)-1 < minRows {
		t.Fatalf("result has %d data rows, want ≥ %d", len(lines)-1, minRows)
	}
	if !strings.HasPrefix(lines[0], "srcip,") {
		t.Fatalf("missing header: %q", lines[0])
	}
	for i, l := range lines[1:] {
		if strings.HasPrefix(l, "srcip,") {
			t.Fatalf("stray header at line %d", i+2)
		}
	}
}

// librarySpanCSV is the library's release of a trace at the given
// config and span: SynthesizeTimeWindows over the loaded table, with
// the windows concatenated under one header as result.csv serves them.
func librarySpanCSV(t *testing.T, table *netdpsyn.Table, cfg netdpsyn.Config, span int64) string {
	t.Helper()
	syn, err := netdpsyn.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	first := true
	err = syn.SynthesizeTimeWindows(table, span, func(wr netdpsyn.WindowResult) error {
		if first {
			first = false
			return wr.Table.WriteCSV(&out)
		}
		return wr.Table.WriteCSVBody(&out)
	})
	if err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestWindowedJob drives the time-span windowed job kind end to end:
// per-window progress, a streamed multi-window result with a single
// header, and — the budget acceptance criterion — a charge of ONE
// window's ρ under parallel composition (valid because a record's
// window is ⌊ts/span⌋, a function of that record alone), with the 403
// past the ceiling still enforced. The released bytes are the
// library's SynthesizeTimeWindows output at the same seed and span.
func TestWindowedJob(t *testing.T) {
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	csvBody, label := sortedFlowCSV(t, 600)
	span := flowSpan(t, csvBody, label, 3)
	rho1, err := netdpsyn.RhoFromEpsDelta(1.0, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	// Ceiling fits one windowed release and no second distinct one.
	info, code := register(t, ts, fmt.Sprintf("schema=flow&label=%s&budget_rho=%g&budget_delta=1e-5", label, 1.5*rho1), csvBody)
	if code != http.StatusCreated {
		t.Fatalf("register = %d", code)
	}

	var ack serve.SynthesisResponse
	req := serve.SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Seed: 5, WindowSpan: span}
	if code := postJSON(t, client, ts.URL+"/datasets/"+info.ID+"/synthesize", req, &ack); code != http.StatusAccepted {
		t.Fatalf("windowed submit = %d", code)
	}
	if ack.WindowSpan != span {
		t.Fatalf("ack window_span = %d, want %d", ack.WindowSpan, span)
	}
	if math.Abs(ack.Rho-rho1) > 1e-12 {
		t.Fatalf("span-windowed charge ρ = %v, want one window's %v (parallel composition)", ack.Rho, rho1)
	}

	done := pollJob(t, client, ts.URL, ack.JobID)
	if done.State != serve.JobDone {
		t.Fatalf("windowed job = %s (%s)", done.State, done.Error)
	}
	if done.WindowsDone < 2 {
		t.Fatalf("windows done = %d, want ≥ 2 (span %d should cut several buckets)", done.WindowsDone, span)
	}
	if done.Records <= 0 {
		t.Fatalf("records = %d", done.Records)
	}

	body, code := fetchCSV(t, ts, ack.JobID)
	if code != http.StatusOK {
		t.Fatalf("result.csv = %d", code)
	}
	checkOneCSV(t, body, 100)
	table, err := netdpsyn.LoadCSV(strings.NewReader(csvBody), netdpsyn.FlowSchema(label))
	if err != nil {
		t.Fatal(err)
	}
	if want := librarySpanCSV(t, table, netdpsyn.Config{Epsilon: 1, Delta: 1e-5, UpdateIterations: 3, Seed: 5}, span); body != want {
		t.Fatal("span job result differs from SynthesizeTimeWindows at the same seed and span")
	}

	// The ledger holds exactly one window's ρ, not windows × ρ.
	var budget serve.Status
	if code := getJSON(t, client, ts.URL+"/datasets/"+info.ID+"/budget", &budget); code != http.StatusOK {
		t.Fatalf("budget = %d", code)
	}
	if math.Abs(budget.SpentRho-rho1) > 1e-12 {
		t.Fatalf("spent ρ = %v, want %v", budget.SpentRho, rho1)
	}

	// Identical windowed resubmit: cache hit, no new spend.
	var ack2 serve.SynthesisResponse
	if code := postJSON(t, client, ts.URL+"/datasets/"+info.ID+"/synthesize", req, &ack2); code != http.StatusAccepted {
		t.Fatalf("resubmit = %d", code)
	}
	if !ack2.Cached || ack2.JobID != ack.JobID {
		t.Fatalf("resubmit: cached=%v job=%s", ack2.Cached, ack2.JobID)
	}
	// A different span is a different release: it would need a fresh
	// ρ, which the ceiling no longer covers → 403.
	req2 := req
	req2.WindowSpan = span + 1
	if code := postJSON(t, client, ts.URL+"/datasets/"+info.ID+"/synthesize", req2, nil); code != http.StatusForbidden {
		t.Fatalf("over-ceiling windowed submit = %d, want 403", code)
	}
	// Span is the only window rule: a "windows" count is an unknown
	// field, refused before any charge.
	resp, err := client.Post(ts.URL+"/datasets/"+info.ID+"/synthesize", "application/json",
		strings.NewReader(fmt.Sprintf(`{"epsilon":1,"delta":1e-5,"iterations":3,"seed":5,"window_span":%d,"windows":2}`, span)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("windows+window_span submit = %d, want 400", resp.StatusCode)
	}
	if code := getJSON(t, client, ts.URL+"/datasets/"+info.ID+"/budget", &budget); code != http.StatusOK || math.Abs(budget.SpentRho-rho1) > 1e-12 {
		t.Fatalf("spent ρ after refused submits = %v (%d), want %v", budget.SpentRho, code, rho1)
	}
	if got := s.Handler(); got == nil {
		t.Fatal("handler disappeared")
	}
	shutdownSrv(t, s)
}

// TestStreamingDatasetEndToEnd covers the spool-only dataset: a
// streaming registration never materializes the trace, windowed jobs
// re-stream it from disk (the same bytes SynthesizeTimeWindows
// releases over the loaded trace), the result persists under the state
// dir, and a restarted daemon recovers the dataset (by spool) and
// serves the finished result directly.
func TestStreamingDatasetEndToEnd(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 2, StateDir: dir})
	ts := httptest.NewServer(s.Handler())
	client := ts.Client()

	csvBody, label := sortedFlowCSV(t, 600)
	span := flowSpan(t, csvBody, label, 3)
	info, code := register(t, ts, "schema=flow&label="+label+"&stream=1", csvBody)
	if code != http.StatusCreated {
		t.Fatalf("streaming register = %d", code)
	}
	if !info.Streaming || info.Rows != 600 {
		t.Fatalf("info = %+v, want streaming with 600 rows", info)
	}

	// A plain (unwindowed) request is rejected: the trace is never
	// loaded whole.
	if code := postJSON(t, client, ts.URL+"/datasets/"+info.ID+"/synthesize",
		serve.SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Seed: 5}, nil); code != http.StatusBadRequest {
		t.Fatalf("plain submit on streaming dataset = %d, want 400", code)
	}
	var ack serve.SynthesisResponse
	req := serve.SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Seed: 5, WindowSpan: span}
	if code := postJSON(t, client, ts.URL+"/datasets/"+info.ID+"/synthesize", req, &ack); code != http.StatusAccepted {
		t.Fatalf("windowed submit = %d", code)
	}
	done := pollJob(t, client, ts.URL, ack.JobID)
	if done.State != serve.JobDone {
		t.Fatalf("job = %s (%s)", done.State, done.Error)
	}
	body, code := fetchCSV(t, ts, ack.JobID)
	if code != http.StatusOK {
		t.Fatalf("result.csv = %d", code)
	}
	checkOneCSV(t, body, 100)
	table, err := netdpsyn.LoadCSV(strings.NewReader(csvBody), netdpsyn.FlowSchema(label))
	if err != nil {
		t.Fatal(err)
	}
	if want := librarySpanCSV(t, table, netdpsyn.Config{Epsilon: 1, Delta: 1e-5, UpdateIterations: 3, Seed: 5}, span); body != want {
		t.Fatal("streaming span job result differs from SynthesizeTimeWindows at the same seed and span")
	}
	spent := done.Rho

	// Restart from the state dir: the streaming dataset comes back
	// spool-only, the ledger position holds, and the persisted result
	// serves without recomputation.
	shutdownSrv(t, s)
	ts.Close()
	s2 := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 2, StateDir: dir})
	defer shutdownSrv(t, s2)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	rec := s2.Recovery()
	if rec == nil || rec.Datasets != 1 || rec.PersistedResults != 1 {
		t.Fatalf("recovery = %+v", rec)
	}
	var info2 serve.Info
	if code := getJSON(t, ts2.Client(), ts2.URL+"/datasets/"+info.ID, &info2); code != http.StatusOK {
		t.Fatalf("dataset after restart = %d", code)
	}
	if !info2.Streaming || info2.Rows != 600 {
		t.Fatalf("restored info = %+v", info2)
	}
	if math.Abs(info2.Budget.SpentRho-spent) > 1e-12 {
		t.Fatalf("spend across restart: %v, want %v", info2.Budget.SpentRho, spent)
	}
	body2, code := fetchCSV(t, ts2, ack.JobID)
	if code != http.StatusOK {
		t.Fatalf("persisted result.csv = %d", code)
	}
	if body2 != body {
		t.Fatal("persisted result differs from the one served before the restart")
	}
}

// TestStreamingRegistrationValidation covers the streaming register
// error paths: no spool available, unsorted input, and the
// volatile-spool opt-in.
func TestStreamingRegistrationValidation(t *testing.T) {
	csvBody, label := sortedFlowCSV(t, 60)

	// Without a state dir (and without the opt-in), streaming
	// registrations are refused.
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	if _, code := register(t, ts, "schema=flow&label="+label+"&stream=1", csvBody); code != http.StatusBadRequest {
		t.Fatalf("volatile streaming register = %d, want 400", code)
	}
	ts.Close()
	shutdownSrv(t, s)

	// With the opt-in it works, spooling to a temp dir; jobs take the
	// daemon's default window span when the request omits one.
	span := flowSpan(t, csvBody, label, 2)
	s = newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 2, AllowVolatileStream: true, DefaultWindowSpan: span})
	ts = httptest.NewServer(s.Handler())
	defer ts.Close()
	defer shutdownSrv(t, s)
	info, code := register(t, ts, "schema=flow&label="+label+"&stream=1", csvBody)
	if code != http.StatusCreated {
		t.Fatalf("opt-in streaming register = %d", code)
	}
	var ack serve.SynthesisResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/datasets/"+info.ID+"/synthesize",
		serve.SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Seed: 9}, &ack); code != http.StatusAccepted {
		t.Fatalf("default-span submit = %d", code)
	}
	if ack.WindowSpan != span {
		t.Fatalf("default window_span = %d, want %d", ack.WindowSpan, span)
	}
	if done := pollJob(t, ts.Client(), ts.URL, ack.JobID); done.State != serve.JobDone {
		t.Fatalf("job = %s (%s)", done.State, done.Error)
	}

	// A span wide enough to cover the whole trace is a single window
	// through the spool — it must run windowed, not hit the (absent)
	// in-memory table.
	var ack1 serve.SynthesisResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/datasets/"+info.ID+"/synthesize",
		serve.SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Seed: 10, WindowSpan: span * 100}, &ack1); code != http.StatusAccepted {
		t.Fatalf("wide-span submit = %d", code)
	}
	if done := pollJob(t, ts.Client(), ts.URL, ack1.JobID); done.State != serve.JobDone || done.Records <= 0 {
		t.Fatalf("wide-span job = %s (%s), records %d", done.State, done.Error, done.Records)
	}

	// Unsorted input is rejected at registration, before any spend.
	unsorted, label2 := flowCSVUnsorted(t, 80)
	if _, code := register(t, ts, "schema=flow&label="+label2+"&stream=1", unsorted); code != http.StatusBadRequest {
		t.Fatalf("unsorted streaming register = %d, want 400", code)
	}
}

// flowCSVUnsorted renders a trace guaranteed to violate ts order.
func flowCSVUnsorted(t *testing.T, rows int) (string, string) {
	t.Helper()
	raw, err := datagen.Generate(datagen.TON, datagen.Config{Rows: rows, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	tsCol := raw.Schema().Index(trace.FieldTS)
	raw = raw.SortBy(tsCol)
	// Swap the first and last timestamps to break the order.
	first, last := raw.Value(0, tsCol), raw.Value(raw.NumRows()-1, tsCol)
	if first == last {
		t.Skip("degenerate timestamps")
	}
	raw.SetValue(0, tsCol, last)
	raw.SetValue(raw.NumRows()-1, tsCol, first)
	var buf bytes.Buffer
	if err := raw.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), datagen.LabelField(datagen.TON)
}

// TestWindowedResultFollows reads result.csv immediately after
// submitting a windowed job: the response streams windows as they
// complete and ends with the full, well-formed CSV.
func TestWindowedResultFollows(t *testing.T) {
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer shutdownSrv(t, s)

	csvBody, label := sortedFlowCSV(t, 600)
	info, code := register(t, ts, "schema=flow&label="+label, csvBody)
	if code != http.StatusCreated {
		t.Fatalf("register = %d", code)
	}
	var ack serve.SynthesisResponse
	req := serve.SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 4, Seed: 21, WindowSpan: flowSpan(t, csvBody, label, 4)}
	if code := postJSON(t, ts.Client(), ts.URL+"/datasets/"+info.ID+"/synthesize", req, &ack); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	// No polling: the GET follows the job to completion.
	body, code := fetchCSV(t, ts, ack.JobID)
	if code != http.StatusOK {
		t.Fatalf("follow result.csv = %d", code)
	}
	checkOneCSV(t, body, 100)
	if info := pollJob(t, ts.Client(), ts.URL, ack.JobID); info.State != serve.JobDone {
		t.Fatalf("job = %s", info.State)
	}
}

// TestStreamingWindowRowCap: the per-window row cap keeps a
// too-coarse span from materializing the whole trace in one table —
// the job fails with a clear error instead of defeating the
// bounded-memory design.
func TestStreamingWindowRowCap(t *testing.T) {
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 2, AllowVolatileStream: true, MaxWindowRows: 100})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer shutdownSrv(t, s)

	csvBody, label := sortedFlowCSV(t, 600)
	span := flowSpan(t, csvBody, label, 1) // one bucket holds all 600 rows
	info, code := register(t, ts, "schema=flow&label="+label+"&stream=1", csvBody)
	if code != http.StatusCreated {
		t.Fatalf("streaming register = %d", code)
	}
	var ack serve.SynthesisResponse
	req := serve.SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Seed: 7, WindowSpan: span}
	if code := postJSON(t, ts.Client(), ts.URL+"/datasets/"+info.ID+"/synthesize", req, &ack); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	done := pollJob(t, ts.Client(), ts.URL, ack.JobID)
	if done.State != serve.JobFailed || !strings.Contains(done.Error, "row cap") {
		t.Fatalf("job = %s (%q), want failed on the row cap", done.State, done.Error)
	}
}

func shutdownSrv(t *testing.T, s *serve.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
