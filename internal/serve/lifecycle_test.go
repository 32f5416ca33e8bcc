package serve_test

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	netdpsyn "github.com/netdpsyn/netdpsyn"
	"github.com/netdpsyn/netdpsyn/internal/core"
	"github.com/netdpsyn/netdpsyn/internal/obs"
	"github.com/netdpsyn/netdpsyn/internal/serve"
)

// libraryPlainCSV is the library's whole-trace release of a table at
// the config Submit normalizes {epsilon 1, delta 1e-5, iterations 3,
// seed} to.
func libraryPlainCSV(t *testing.T, table *netdpsyn.Table, label string, seed uint64) string {
	t.Helper()
	syn, err := netdpsyn.New(netdpsyn.Config{Epsilon: 1, Delta: 1e-5, UpdateIterations: 3, Seed: seed,
		Tau: core.DefaultConfig().Tau, KeyAttr: label})
	if err != nil {
		t.Fatal(err)
	}
	res, err := syn.Synthesize(table)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := res.Table.WriteCSV(&out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// windowsSynthesized sums every netdpsynd_windows_synthesized_total
// sample of the server's exposition.
func windowsSynthesized(t *testing.T, ts *httptest.Server) float64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, line := range strings.Split(body.String(), "\n") {
		if !strings.HasPrefix(line, "netdpsynd_windows_synthesized_total") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// checkPlainJobJSON asserts the GET /jobs/{id} shape of a finished
// plain job: one trace entry (window 0, no bucket) and no window_span
// or windows_done.
func checkPlainJobJSON(t *testing.T, ts *httptest.Server, jobID string) {
	t.Helper()
	var raw map[string]json.RawMessage
	if code := getJSON(t, ts.Client(), ts.URL+"/jobs/"+jobID, &raw); code != http.StatusOK {
		t.Fatalf("GET /jobs/%s = %d", jobID, code)
	}
	for _, key := range []string{"window_span", "windows_done", "empty_buckets"} {
		if v, ok := raw[key]; ok {
			t.Errorf("plain job %s carries %q: %s", jobID, key, v)
		}
	}
	var trace []map[string]json.RawMessage
	if err := json.Unmarshal(raw["trace"], &trace); err != nil || len(trace) != 1 {
		t.Fatalf("plain job %s trace = %s (%v), want one entry", jobID, raw["trace"], err)
	}
	if v, ok := trace[0]["bucket"]; ok {
		t.Errorf("plain job %s trace entry carries a bucket: %s", jobID, v)
	}
	if w := string(trace[0]["window"]); w != "0" {
		t.Errorf("plain job %s trace window = %s, want 0", jobID, w)
	}
}

// TestPlainJobMatchesLibrary pins what the daemon emits for a plain
// (whole-trace) job, on a volatile and on a durable server: result.csv
// is the library's Synthesize bytes at the normalized config, before
// and after the result is evicted and regenerated by an identical
// resubmit; the job JSON has one bucketless trace entry and no window
// fields; and netdpsynd_windows_synthesized_total does not move.
func TestPlainJobMatchesLibrary(t *testing.T) {
	csvBody, label := flowCSV(t, 400)
	table, err := netdpsyn.LoadCSV(strings.NewReader(csvBody), netdpsyn.FlowSchema(label))
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]string{5: libraryPlainCSV(t, table, label, 5), 6: libraryPlainCSV(t, table, label, 6)}
	for _, durable := range []bool{false, true} {
		opts := serve.Options{MaxConcurrentJobs: 1, Workers: 1, MaxResults: 1, Obs: obs.NewRegistry()}
		if durable {
			opts.StateDir = t.TempDir()
		}
		s := newTestServer(t, opts)
		ts := httptest.NewServer(s.Handler())
		info, code := register(t, ts, "label="+label, csvBody)
		if code != http.StatusCreated {
			t.Fatalf("durable=%v: register = %d", durable, code)
		}
		run := func(seed uint64, wantCached bool) string {
			t.Helper()
			var ack serve.SynthesisResponse
			req := serve.SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Seed: seed}
			if code := postJSON(t, ts.Client(), ts.URL+"/datasets/"+info.ID+"/synthesize", req, &ack); code != http.StatusAccepted || ack.Cached != wantCached {
				t.Fatalf("durable=%v seed %d: submit = %d %+v, want cached=%v", durable, seed, code, ack, wantCached)
			}
			if done := pollJob(t, ts.Client(), ts.URL, ack.JobID); done.State != serve.JobDone {
				t.Fatalf("durable=%v seed %d: job = %s (%s)", durable, seed, done.State, done.Error)
			}
			if body, code := fetchCSV(t, ts, ack.JobID); code != http.StatusOK || body != want[seed] {
				t.Fatalf("durable=%v seed %d: result.csv = %d (%d bytes), want the library's %d bytes", durable, seed, code, len(body), len(want[seed]))
			}
			checkPlainJobJSON(t, ts, ack.JobID)
			return ack.JobID
		}
		a := run(5, false)
		run(6, false) // evicts a's result (MaxResults 1)
		if _, code := fetchCSV(t, ts, a); code != http.StatusGone {
			t.Fatalf("durable=%v: evicted result.csv = %d, want 410", durable, code)
		}
		if again := run(5, true); again != a {
			t.Fatalf("durable=%v: resubmit resurrected %s, want %s", durable, again, a)
		}
		if n := windowsSynthesized(t, ts); n != 0 {
			t.Fatalf("durable=%v: plain jobs moved netdpsynd_windows_synthesized_total to %v", durable, n)
		}
		ts.Close()
		shutdownSrv(t, s)
	}
}

// TestResultSpoolMemoryFallback: a durable daemon whose results/
// cannot take a file keeps each release in a memory spool, with one
// warning line per job. Plain and span jobs both finish done and serve
// the library's bytes, and an identical resubmit is a cache hit that
// serves at once. No file was written, so after a restart (results/ a
// directory again) the recovered jobs are done with no result: 410,
// and an identical resubmit regenerates the same bytes at zero charge.
func TestResultSpoolMemoryFallback(t *testing.T) {
	dir := t.TempDir()
	logBuf := &syncBuffer{}
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 1, StateDir: dir,
		Logger: slog.New(slog.NewTextHandler(logBuf, nil))})
	results := filepath.Join(dir, "results")
	if err := os.RemoveAll(results); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(results, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	csvBody, label := sortedFlowCSV(t, 300)
	table, err := netdpsyn.LoadCSV(strings.NewReader(csvBody), netdpsyn.FlowSchema(label))
	if err != nil {
		t.Fatal(err)
	}
	span := flowSpan(t, csvBody, label, 3)
	info, code := register(t, ts, "label="+label+"&budget_rho=1", csvBody)
	if code != http.StatusCreated {
		t.Fatalf("register = %d", code)
	}
	plain := serve.SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Seed: 5}
	spanReq := plain
	spanReq.WindowSpan = span
	kinds := []struct {
		name string
		req  serve.SynthesisRequest
		want string
	}{
		{"plain", plain, libraryPlainCSV(t, table, label, 5)},
		{"span", spanReq, librarySpanCSV(t, table, netdpsyn.Config{Epsilon: 1, Delta: 1e-5, UpdateIterations: 3, Seed: 5}, span)},
	}
	submitDone := func(ts *httptest.Server, name string, req serve.SynthesisRequest, wantCached bool) string {
		t.Helper()
		var ack serve.SynthesisResponse
		if code := postJSON(t, ts.Client(), ts.URL+"/datasets/"+info.ID+"/synthesize", req, &ack); code != http.StatusAccepted || ack.Cached != wantCached {
			t.Fatalf("%s: submit = %d %+v, want cached=%v", name, code, ack, wantCached)
		}
		if done := pollJob(t, ts.Client(), ts.URL, ack.JobID); done.State != serve.JobDone {
			t.Fatalf("%s: job = %s (%s)", name, done.State, done.Error)
		}
		return ack.JobID
	}
	ids := make([]string, len(kinds))
	for i, k := range kinds {
		ids[i] = submitDone(ts, k.name, k.req, false)
		for _, when := range []string{"first fetch", "after an identical resubmit"} {
			if body, code := fetchCSV(t, ts, ids[i]); code != http.StatusOK || body != k.want {
				t.Fatalf("%s %s: result.csv = %d (%d bytes), want the library's %d bytes", k.name, when, code, len(body), len(k.want))
			}
			if again := submitDone(ts, k.name, k.req, true); again != ids[i] {
				t.Fatalf("%s: resubmit = %s, want %s", k.name, again, ids[i])
			}
		}
	}
	if n := strings.Count(logBuf.String(), "result file not created"); n != len(kinds) {
		t.Fatalf("%d fallback warnings, want one per job:\n%s", n, logBuf.String())
	}
	ts.Close()
	shutdownSrv(t, s)

	if err := os.Remove(results); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(results, 0o700); err != nil {
		t.Fatal(err)
	}
	s2 := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 1, StateDir: dir})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer shutdownSrv(t, s2)
	var before, after serve.Status
	getJSON(t, ts2.Client(), ts2.URL+"/datasets/"+info.ID+"/budget", &before)
	for i, k := range kinds {
		if _, code := fetchCSV(t, ts2, ids[i]); code != http.StatusGone {
			t.Fatalf("%s after restart: result.csv = %d, want 410", k.name, code)
		}
		if again := submitDone(ts2, k.name, k.req, true); again != ids[i] {
			t.Fatalf("%s after restart: resubmit = %s, want %s", k.name, again, ids[i])
		}
		if body, code := fetchCSV(t, ts2, ids[i]); code != http.StatusOK || body != k.want {
			t.Fatalf("%s regenerated: result.csv = %d (%d bytes), want the library's %d bytes", k.name, code, len(body), len(k.want))
		}
	}
	getJSON(t, ts2.Client(), ts2.URL+"/datasets/"+info.ID+"/budget", &after)
	if after.SpentRho != before.SpentRho {
		t.Fatalf("regeneration charged the ledger: spent ρ %v → %v", before.SpentRho, after.SpentRho)
	}
}

// TestConcurrentPlainJobsMatchLibrary: plain jobs of one dataset that
// run two at a time (MaxConcurrentJobs 2) share the dataset's one
// prepared form, and each result.csv is still the library's bytes.
func TestConcurrentPlainJobsMatchLibrary(t *testing.T) {
	csvBody, label := flowCSV(t, 400)
	table, err := netdpsyn.LoadCSV(strings.NewReader(csvBody), netdpsyn.FlowSchema(label))
	if err != nil {
		t.Fatal(err)
	}
	seeds := []uint64{5, 6, 7, 8}
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 2, Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer shutdownSrv(t, s)
	info, code := register(t, ts, "label="+label+"&budget_rho=1", csvBody)
	if code != http.StatusCreated {
		t.Fatalf("register = %d", code)
	}
	jobs := make([]string, len(seeds))
	for i, seed := range seeds {
		var ack serve.SynthesisResponse
		req := serve.SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Seed: seed}
		if code := postJSON(t, ts.Client(), ts.URL+"/datasets/"+info.ID+"/synthesize", req, &ack); code != http.StatusAccepted {
			t.Fatalf("seed %d: submit = %d", seed, code)
		}
		jobs[i] = ack.JobID
	}
	for i, seed := range seeds {
		if done := pollJob(t, ts.Client(), ts.URL, jobs[i]); done.State != serve.JobDone {
			t.Fatalf("seed %d: job = %s (%s)", seed, done.State, done.Error)
		}
		if body, code := fetchCSV(t, ts, jobs[i]); code != http.StatusOK || body != libraryPlainCSV(t, table, label, seed) {
			t.Fatalf("seed %d: result.csv = %d (%d bytes), want the library's bytes", seed, code, len(body))
		}
	}
}

// TestJobTraceAfterResurrection: a trace entry's rho_charged is what
// that run charged. The first run of a plain job and of a span job
// reads the job's ρ on every entry; evicting the result and
// resubmitting the identical request re-runs the job at zero charge,
// and the re-run's entries read 0.
func TestJobTraceAfterResurrection(t *testing.T) {
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 1, MaxResults: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer shutdownSrv(t, s)
	csvBody, label := flowCSV(t, 400)
	info, code := register(t, ts, "label="+label+"&budget_rho=1", csvBody)
	if code != http.StatusCreated {
		t.Fatalf("register = %d", code)
	}
	span := flowSpan(t, csvBody, label, 3)
	for _, tc := range []struct {
		name string
		span int64
	}{{"plain", 0}, {"span", span}} {
		submitDone := func(seed uint64, wantCached bool) serve.JobInfo {
			t.Helper()
			var ack serve.SynthesisResponse
			req := serve.SynthesisRequest{Epsilon: 0.5, Iterations: 3, Seed: seed, WindowSpan: tc.span}
			if code := postJSON(t, ts.Client(), ts.URL+"/datasets/"+info.ID+"/synthesize", req, &ack); code != http.StatusAccepted || ack.Cached != wantCached {
				t.Fatalf("%s seed %d: submit = %d %+v, want cached=%v", tc.name, seed, code, ack, wantCached)
			}
			done := pollJob(t, ts.Client(), ts.URL, ack.JobID)
			if done.State != serve.JobDone || len(done.Trace) == 0 {
				t.Fatalf("%s seed %d: job = %s (%s), %d trace entries", tc.name, seed, done.State, done.Error, len(done.Trace))
			}
			return done
		}
		first := submitDone(1, false)
		for i, tr := range first.Trace {
			if math.Abs(tr.RhoCharged-first.Rho) > 1e-12 {
				t.Errorf("%s first run: trace[%d].rho_charged = %v, want ρ %v", tc.name, i, tr.RhoCharged, first.Rho)
			}
		}
		submitDone(2, false) // evicts the first job's result (MaxResults 1)
		var before serve.Status
		getJSON(t, ts.Client(), ts.URL+"/datasets/"+info.ID+"/budget", &before)
		again := submitDone(1, true)
		var after serve.Status
		getJSON(t, ts.Client(), ts.URL+"/datasets/"+info.ID+"/budget", &after)
		if again.ID != first.ID || after.SpentRho != before.SpentRho {
			t.Fatalf("%s: resubmit = %s, spent ρ %v → %v; want %s at zero charge", tc.name, again.ID, before.SpentRho, after.SpentRho, first.ID)
		}
		if len(again.Trace) != len(first.Trace) {
			t.Fatalf("%s: re-run has %d trace entries, first run %d", tc.name, len(again.Trace), len(first.Trace))
		}
		for i, tr := range again.Trace {
			if tr.RhoCharged != 0 {
				t.Errorf("%s re-run: trace[%d].rho_charged = %v, want 0 (the re-run charged nothing)", tc.name, i, tr.RhoCharged)
			}
		}
	}
}
