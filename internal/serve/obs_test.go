package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/netdpsyn/netdpsyn/internal/obs"
	"github.com/netdpsyn/netdpsyn/internal/obs/obstest"
	"github.com/netdpsyn/netdpsyn/internal/serve"
)

// syncBuffer lets the slog capture race-safely with the server's own
// goroutines (job runners log off-request).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (sb *syncBuffer) Write(p []byte) (int, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Write(p)
}

func (sb *syncBuffer) String() string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.String()
}

// obsServer builds a server wired to a capture logger and a fresh
// metrics registry, runs one synthesis to completion, and hands back
// everything the observability assertions need.
func obsServer(t *testing.T) (*serve.Server, *httptest.Server, *syncBuffer) {
	t.Helper()
	logBuf := &syncBuffer{}
	srv, err := serve.NewServer(serve.Options{
		Addr:   ":0",
		Logger: slog.New(slog.NewTextHandler(logBuf, nil)),
		Obs:    obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, logBuf
}

func obsRegister(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	csv, label := flowCSV(t, 120)
	resp, err := http.Post(ts.URL+"/datasets?schema=flow&label="+label, "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register = %d", resp.StatusCode)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info.ID
}

func obsSynthesize(t *testing.T, srv *serve.Server, ts *httptest.Server, ds, body string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/datasets/"+ds+"/synthesize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("synthesize = %d", resp.StatusCode)
	}
	var ack struct {
		JobID string `json:"job_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.WaitJob(ack.JobID, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	return ack.JobID
}

// TestMetricsEndpoint drives a dataset through registration and one
// synthesis, then asserts /metrics renders a grammar-valid exposition
// covering every instrumented layer: HTTP, engine stages, queue,
// budget ledger, and readiness.
func TestMetricsEndpoint(t *testing.T) {
	srv, ts, _ := obsServer(t)
	ds := obsRegister(t, ts)
	obsSynthesize(t, srv, ts, ds, `{"epsilon":1.0,"seed":7,"records":50}`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	if err := obstest.ValidateExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for _, want := range []string{
		"netdpsynd_http_requests_total",
		"netdpsynd_http_request_seconds",
		"netdpsynd_stage_seconds",
		"netdpsynd_engine_workers_active",
		"netdpsynd_queue_depth",
		"netdpsynd_jobs{",
		"netdpsynd_jobs_admitted_total",
		"netdpsynd_result_cache_misses_total",
		"netdpsynd_budget_spent_rho",
		"netdpsynd_budget_ceiling_rho",
		"netdpsynd_datasets",
		"netdpsynd_ready 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The stage histograms must carry real observations from the run.
	if !strings.Contains(body, `netdpsynd_stage_seconds_count{clock="wall",stage="select"}`) {
		t.Errorf("no wall-clock select stage observations:\n%s", grepMetric(body, "stage_seconds_count"))
	}
	// The ledger gauge must show the charged spend (ε=1 ⇒ ρ > 0).
	if strings.Contains(body, fmt.Sprintf(`netdpsynd_budget_spent_rho{dataset="%s"} 0`+"\n", ds)) {
		t.Errorf("budget gauge still zero after a charged synthesis")
	}
}

// TestRequestTracing asserts the middleware contract end to end: a
// sane client-supplied X-Request-ID is honored and echoed, a missing
// or hostile one is replaced, and the id lands in the structured
// access log.
func TestRequestTracing(t *testing.T) {
	_, ts, logBuf := obsServer(t)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "trace-me-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "trace-me-42" {
		t.Errorf("sane inbound id not echoed: got %q", got)
	}

	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "evil id with spaces")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got == "" || strings.Contains(got, " ") {
		t.Errorf("hostile inbound id must be replaced with a generated one, got %q", got)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("no generated request id on a bare request")
	}

	logs := logBuf.String()
	if !strings.Contains(logs, "request_id=trace-me-42") {
		t.Errorf("access log missing the honored request id:\n%s", logs)
	}
	if !strings.Contains(logs, "route=\"GET /healthz\"") {
		t.Errorf("access log missing the route pattern:\n%s", logs)
	}
}

// TestReadyz asserts the readiness lifecycle: ready while serving,
// 503 draining once Shutdown begins. /healthz is liveness and stays
// 200 throughout — the probes are distinct on purpose.
func TestReadyz(t *testing.T) {
	srv, ts, _ := obsServer(t)

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz while serving = %d", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz while serving = %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// The httptest server still routes to the handler even though the
	// server's own listener is down.
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz after shutdown = %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("healthz after shutdown = %d, want 200 (liveness, not readiness)", code)
	}
}

// TestJobTrace asserts GET /jobs/{id} carries the per-job trace: one
// entry per window in order, each with its bucket, its ρ charge and
// ordered stage spans.
func TestJobTrace(t *testing.T) {
	srv, ts, _ := obsServer(t)
	ds := obsRegister(t, ts)
	csvBody, label := flowCSV(t, 120) // the trace obsRegister registers
	span := flowSpan(t, csvBody, label, 2)
	job := obsSynthesize(t, srv, ts, ds, fmt.Sprintf(`{"epsilon":1.0,"seed":7,"records":40,"window_span":%d}`, span))

	resp, err := http.Get(ts.URL + "/jobs/" + job)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info struct {
		Rho   float64 `json:"rho"`
		Trace []struct {
			Window     int     `json:"window"`
			Bucket     *int64  `json:"bucket"`
			RhoCharged float64 `json:"rho_charged"`
			Records    int     `json:"records"`
			Spans      []struct {
				Stage  string  `json:"stage"`
				WallMS float64 `json:"wall_ms"`
			} `json:"spans"`
		} `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if len(info.Trace) != 2 {
		t.Fatalf("trace entries = %d, want 2 (one per window)", len(info.Trace))
	}
	buckets := map[int64]bool{}
	for i, tr := range info.Trace {
		if tr.Window != i {
			t.Errorf("trace[%d].window = %d, want in submission order", i, tr.Window)
		}
		// Span windows compose in parallel: each window charges one
		// window's ρ — the job's ρ — to its own bucket key.
		if tr.Bucket == nil || buckets[*tr.Bucket] {
			t.Errorf("trace[%d].bucket = %v, want a distinct bucket per window", i, tr.Bucket)
		} else {
			buckets[*tr.Bucket] = true
		}
		if diff := tr.RhoCharged - info.Rho; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("trace[%d].rho_charged = %v, want the job ρ %v", i, tr.RhoCharged, info.Rho)
		}
		if len(tr.Spans) == 0 {
			t.Errorf("trace[%d] has no stage spans", i)
			continue
		}
		stages := map[string]bool{}
		for _, sp := range tr.Spans {
			stages[sp.Stage] = true
		}
		for _, want := range []string{"select", "publish"} {
			if !stages[want] {
				t.Errorf("trace[%d] missing stage %q (got %v)", i, want, stages)
			}
		}
	}
}

// TestResultCacheMetrics asserts the hit/miss counters move with the
// release cache: a fresh admission is a miss, the identical resubmit
// a hit.
func TestResultCacheMetrics(t *testing.T) {
	srv, ts, _ := obsServer(t)
	ds := obsRegister(t, ts)
	body := `{"epsilon":1.0,"seed":7,"records":40}`
	obsSynthesize(t, srv, ts, ds, body)
	obsSynthesize(t, srv, ts, ds, body) // identical: cache hit, no new charge

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body = buf.String()
	if !strings.Contains(body, "netdpsynd_result_cache_hits_total 1") {
		t.Errorf("cache hit not counted:\n%s", grepMetric(body, "netdpsynd_result_cache"))
	}
	if !strings.Contains(body, "netdpsynd_result_cache_misses_total 1") {
		t.Errorf("cache miss not counted:\n%s", grepMetric(body, "netdpsynd_result_cache"))
	}
	if !strings.Contains(body, "netdpsynd_jobs_admitted_total 1") {
		t.Errorf("admissions counted wrong:\n%s", grepMetric(body, "netdpsynd_jobs_admitted"))
	}
}

// TestWindowSpendStructured asserts GET /datasets/{id} and the budget
// endpoint expose the per-window-key ledger as a structured list, not
// just the flat map.
func TestWindowSpendStructured(t *testing.T) {
	srv, ts, _ := obsServer(t)
	ds := obsRegister(t, ts)
	// A span release charges per (span, bucket) key.
	obsSynthesize(t, srv, ts, ds, `{"epsilon":1.0,"seed":7,"records":40,"window_span":20}`)

	var snap struct {
		WindowSpend []struct {
			Key    string  `json:"key"`
			Span   int64   `json:"span"`
			Bucket int64   `json:"bucket"`
			Rho    float64 `json:"rho"`
		} `json:"window_spend"`
	}
	resp, err := http.Get(ts.URL + "/datasets/" + ds + "/budget")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(snap.WindowSpend) == 0 {
		t.Fatal("budget snapshot has no structured window spend after a span release")
	}
	lastBucket := snap.WindowSpend[0].Bucket - 1
	for _, ws := range snap.WindowSpend {
		if ws.Span != 20 {
			t.Errorf("window spend span = %d, want 20", ws.Span)
		}
		if ws.Rho <= 0 {
			t.Errorf("window spend key %s rho = %v, want > 0", ws.Key, ws.Rho)
		}
		if ws.Bucket <= lastBucket {
			t.Errorf("window spend not sorted by bucket: %d after %d", ws.Bucket, lastBucket)
		}
		lastBucket = ws.Bucket
		if want := fmt.Sprintf("s%d/b%d", ws.Span, ws.Bucket); ws.Key != want {
			t.Errorf("window spend key = %q, want %q", ws.Key, want)
		}
	}

	// The same structure rides the dataset view (budget is embedded).
	var dsInfo struct {
		Budget struct {
			WindowSpend []json.RawMessage `json:"window_spend"`
		} `json:"budget"`
	}
	resp, err = http.Get(ts.URL + "/datasets/" + ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&dsInfo); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(dsInfo.Budget.WindowSpend) != len(snap.WindowSpend) {
		t.Errorf("dataset view window spend = %d entries, budget view = %d",
			len(dsInfo.Budget.WindowSpend), len(snap.WindowSpend))
	}
}

// grepMetric pulls the lines mentioning prefix out of an exposition,
// for focused failure messages.
func grepMetric(body, prefix string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, prefix) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
