package serve_test

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"github.com/netdpsyn/netdpsyn/internal/serve"
)

// TestResultZeroCopyServing covers the http.ServeContent path for
// finished results: a durable (file-backed) result must come back
// whole with a Content-Length and honor byte-range requests, and the
// ranged bytes must slice the exact same CSV a plain GET returns.
func TestResultZeroCopyServing(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 2, StateDir: dir})
	defer shutdownSrv(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	csvBody, label := flowCSV(t, 300)
	info, code := register(t, ts, "schema=flow&label="+label, csvBody)
	if code != http.StatusCreated {
		t.Fatalf("register = %d", code)
	}
	var ack serve.SynthesisResponse
	req := serve.SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Seed: 5}
	if code := postJSON(t, client, ts.URL+"/datasets/"+info.ID+"/synthesize", req, &ack); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	if done := pollJob(t, client, ts.URL, ack.JobID); done.State != serve.JobDone {
		t.Fatalf("job = %s (%s)", done.State, done.Error)
	}

	resultURL := ts.URL + "/jobs/" + ack.JobID + "/result.csv"
	resp, err := client.Get(resultURL)
	if err != nil {
		t.Fatal(err)
	}
	full, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result.csv = %d (%v)", resp.StatusCode, err)
	}
	if resp.ContentLength != int64(len(full)) {
		t.Fatalf("Content-Length = %d, body is %d bytes — the spooled file should serve with its exact length", resp.ContentLength, len(full))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, ack.JobID) {
		t.Fatalf("Content-Disposition = %q", cd)
	}
	checkOneCSV(t, string(full), 100)

	// Range request: the first 100 bytes, exactly, with a 206 and a
	// correct Content-Range — the contract http.ServeContent buys us.
	rreq, err := http.NewRequest(http.MethodGet, resultURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	rreq.Header.Set("Range", "bytes=0-99")
	rresp, err := client.Do(rreq)
	if err != nil {
		t.Fatal(err)
	}
	part, err := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if err != nil || rresp.StatusCode != http.StatusPartialContent {
		t.Fatalf("ranged GET = %d (%v), want 206", rresp.StatusCode, err)
	}
	if string(part) != string(full[:100]) {
		t.Fatalf("ranged bytes differ from the full result's prefix")
	}
	if cr, want := rresp.Header.Get("Content-Range"), fmt.Sprintf("bytes 0-99/%d", len(full)); cr != want {
		t.Fatalf("Content-Range = %q, want %q", cr, want)
	}

	// A tail range too (resumed downloads are the real use case).
	rreq2, _ := http.NewRequest(http.MethodGet, resultURL, nil)
	rreq2.Header.Set("Range", fmt.Sprintf("bytes=%d-", len(full)-50))
	rresp2, err := client.Do(rreq2)
	if err != nil {
		t.Fatal(err)
	}
	tail, _ := io.ReadAll(rresp2.Body)
	rresp2.Body.Close()
	if rresp2.StatusCode != http.StatusPartialContent || string(tail) != string(full[len(full)-50:]) {
		t.Fatalf("tail range = %d, %d bytes", rresp2.StatusCode, len(tail))
	}
}

// TestResultMemorySpoolWholeServing is the volatile-queue analogue: a
// windowed job without a state dir seals an in-memory spool, and the
// finished result must still serve whole with a Content-Length (via
// ServeContent over the sealed buffer) rather than a chunked follow
// stream.
func TestResultMemorySpoolWholeServing(t *testing.T) {
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 2})
	defer shutdownSrv(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	csvBody, label := sortedFlowCSV(t, 300)
	info, code := register(t, ts, "schema=flow&label="+label, csvBody)
	if code != http.StatusCreated {
		t.Fatalf("register = %d", code)
	}
	var ack serve.SynthesisResponse
	req := serve.SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Seed: 5, WindowSpan: flowSpan(t, csvBody, label, 3)}
	if code := postJSON(t, client, ts.URL+"/datasets/"+info.ID+"/synthesize", req, &ack); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	if done := pollJob(t, client, ts.URL, ack.JobID); done.State != serve.JobDone {
		t.Fatalf("job = %s (%s)", done.State, done.Error)
	}
	resp, err := client.Get(ts.URL + "/jobs/" + ack.JobID + "/result.csv")
	if err != nil {
		t.Fatal(err)
	}
	full, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result.csv = %d (%v)", resp.StatusCode, err)
	}
	if resp.ContentLength != int64(len(full)) {
		t.Fatalf("Content-Length = %d, body is %d bytes", resp.ContentLength, len(full))
	}
	checkOneCSV(t, string(full), 100)
}

// readFromRecorder is a ResponseWriter that, like net/http's own,
// implements io.ReaderFrom; it records the source of every ReadFrom
// call.
type readFromRecorder struct {
	*httptest.ResponseRecorder
	srcs []io.Reader
}

func (rw *readFromRecorder) ReadFrom(src io.Reader) (int64, error) {
	rw.srcs = append(rw.srcs, src)
	return io.Copy(struct{ io.Writer }{rw.ResponseRecorder}, src)
}

// TestResultServedThroughReadFrom: the observability middleware must
// not hide the ResponseWriter's io.ReaderFrom. net/http's response
// implements ReadFrom with sendfile(2) for an *os.File source, so a
// finished durable result reaches sendfile only if http.ServeContent's
// copy is handed through the middleware's wrapper — and the access log
// must still count the bytes exactly.
func TestResultServedThroughReadFrom(t *testing.T) {
	logBuf := &syncBuffer{}
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 2, StateDir: t.TempDir(),
		Logger: slog.New(slog.NewTextHandler(logBuf, nil))})
	defer shutdownSrv(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	csvBody, label := flowCSV(t, 300)
	info, code := register(t, ts, "schema=flow&label="+label, csvBody)
	if code != http.StatusCreated {
		t.Fatalf("register = %d", code)
	}
	var ack serve.SynthesisResponse
	req := serve.SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Seed: 5}
	if code := postJSON(t, client, ts.URL+"/datasets/"+info.ID+"/synthesize", req, &ack); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	if done := pollJob(t, client, ts.URL, ack.JobID); done.State != serve.JobDone {
		t.Fatalf("job = %s (%s)", done.State, done.Error)
	}
	want, code := fetchCSV(t, ts, ack.JobID)
	if code != http.StatusOK {
		t.Fatalf("result.csv = %d", code)
	}

	path := "/jobs/" + ack.JobID + "/result.csv"
	rw := &readFromRecorder{ResponseRecorder: httptest.NewRecorder()}
	s.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodGet, path, nil))
	if rw.Code != http.StatusOK || rw.Body.String() != want {
		t.Fatalf("result.csv through the handler = %d, %d bytes; want 200, %d bytes", rw.Code, rw.Body.Len(), len(want))
	}
	if len(rw.srcs) != 1 {
		t.Fatalf("ReadFrom calls = %d, want 1 — the copy bypassed the writer's ReadFrom, so no sendfile", len(rw.srcs))
	}
	lr, ok := rw.srcs[0].(*io.LimitedReader)
	if !ok {
		t.Fatalf("ReadFrom source = %T, want *io.LimitedReader", rw.srcs[0])
	}
	if _, ok := lr.R.(*os.File); !ok {
		t.Fatalf("ReadFrom source reads %T, want the spool *os.File", lr.R)
	}
	var logged bool
	for _, line := range strings.Split(logBuf.String(), "\n") {
		if strings.Contains(line, "path="+path) && strings.Contains(line, "status=200") {
			logged = true
			if !strings.Contains(line, fmt.Sprintf(" bytes=%d ", len(want))) {
				t.Errorf("access log line %q, want bytes=%d", line, len(want))
			}
		}
	}
	if !logged {
		t.Fatal("no access log line for result.csv")
	}
}
