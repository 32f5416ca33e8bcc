package serve_test

// Tests for continuous ingest: the live window-feed dataset kind
// (PUT /datasets/{id}/windows/{bucket}), follow jobs, and the
// per-window-key budget composition they ride on — distinct buckets
// compose in parallel (max, not sum), re-releasing the same bucket
// across epochs composes sequentially against the ceiling.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	netdpsyn "github.com/netdpsyn/netdpsyn"
	"github.com/netdpsyn/netdpsyn/internal/serve"
	"github.com/netdpsyn/netdpsyn/internal/serve/persist"
	"github.com/netdpsyn/netdpsyn/internal/trace"
)

// bucketCut is one whole window of a trace, ready to PUT.
type bucketCut struct {
	bucket int64
	csv    string
	rows   int
}

// cutBuckets splits a rendered time-sorted CSV trace into its span
// buckets, each rendered as a standalone CSV document.
func cutBuckets(t *testing.T, csvBody, label string, span int64) []bucketCut {
	t.Helper()
	table, err := netdpsyn.LoadCSV(strings.NewReader(csvBody), netdpsyn.FlowSchema(label))
	if err != nil {
		t.Fatal(err)
	}
	ts := table.Column(table.Schema().Index(trace.FieldTS))
	var cuts []bucketCut
	for lo := 0; lo < table.NumRows(); {
		b := netdpsyn.TimeBucket(ts[lo], span)
		hi := lo
		for hi < table.NumRows() && netdpsyn.TimeBucket(ts[hi], span) == b {
			hi++
		}
		part := netdpsyn.NewTable(table.Schema(), hi-lo)
		if err := part.AppendRowRange(table, lo, hi); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := part.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		cuts = append(cuts, bucketCut{bucket: b, csv: buf.String(), rows: hi - lo})
		lo = hi
	}
	return cuts
}

// putWindow PUTs one window and decodes the ack.
func putWindow(t *testing.T, ts *httptest.Server, dsID string, bucket int64, body string) (serve.WindowAck, int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut,
		fmt.Sprintf("%s/datasets/%s/windows/%d", ts.URL, dsID, bucket), strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/csv")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	_, _ = raw.ReadFrom(resp.Body)
	var ack serve.WindowAck
	if resp.StatusCode == http.StatusCreated {
		if err := json.Unmarshal(raw.Bytes(), &ack); err != nil {
			t.Fatalf("decode window ack (%s): %v", raw.String(), err)
		}
	}
	return ack, resp.StatusCode, raw.String()
}

func sealFeed(t *testing.T, ts *httptest.Server, dsID string) int {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/datasets/"+dsID+"/seal", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// waitWindowsDone polls the job until windows_done reaches n.
func waitWindowsDone(t *testing.T, ts *httptest.Server, jobID string, n int) serve.JobInfo {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		var info serve.JobInfo
		if code := getJSON(t, ts.Client(), ts.URL+"/jobs/"+jobID, &info); code != http.StatusOK {
			t.Fatalf("GET job = %d", code)
		}
		if info.WindowsDone >= n || info.State == serve.JobFailed {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at %d/%d windows (%s: %s)", jobID, info.WindowsDone, n, info.State, info.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFollowJobEndToEnd is the acceptance walkthrough over a volatile
// feed: PUT 3 windows → 3 synthesized windows stream out as they
// land, the ledger holds ONE window's ρ across the distinct keys,
// re-PUT of a sealed bucket is 409, the sealed job's output is
// byte-identical to SynthesizeTimeWindows over the assembled trace,
// and a second epoch re-releasing one bucket doubles only that key.
func TestFollowJobEndToEnd(t *testing.T) {
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 2, AllowVolatileFeed: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer shutdownSrv(t, s)

	csvBody, label := sortedFlowCSV(t, 600)
	span := flowSpan(t, csvBody, label, 3)
	cuts := cutBuckets(t, csvBody, label, span)
	if len(cuts) < 3 {
		t.Fatalf("want ≥ 3 buckets, got %d", len(cuts))
	}
	cuts = cuts[:3]
	rho1, err := netdpsyn.RhoFromEpsDelta(1.0, 1e-5)
	if err != nil {
		t.Fatal(err)
	}

	info, code := register(t, ts, fmt.Sprintf("schema=flow&label=%s&feed=1&span=%d&budget_rho=%g&budget_delta=1e-5",
		label, span, 2.5*rho1), "")
	if code != http.StatusCreated {
		t.Fatalf("feed register = %d", code)
	}
	if !info.Feed || info.Span != span || info.Epoch != 1 || info.Rows != 0 {
		t.Fatalf("feed info = %+v", info)
	}

	// Follow job starts before any window exists: it waits live.
	req := serve.SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Seed: 5, Follow: true}
	var ack serve.SynthesisResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/datasets/"+info.ID+"/synthesize", req, &ack); code != http.StatusAccepted {
		t.Fatalf("follow submit = %d", code)
	}
	if !ack.Follow || ack.Epoch != 1 || ack.WindowSpan != span {
		t.Fatalf("follow ack = %+v", ack)
	}
	if math.Abs(ack.Rho-rho1) > 1e-12 {
		t.Fatalf("follow per-window ρ = %v, want %v", ack.Rho, rho1)
	}

	// Windows land one at a time; the job synthesizes each as it
	// arrives (windows_done advances while the feed stays open).
	for i, c := range cuts {
		wack, code, body := putWindow(t, ts, info.ID, c.bucket, c.csv)
		if code != http.StatusCreated {
			t.Fatalf("PUT window %d = %d (%s)", c.bucket, code, body)
		}
		if wack.Epoch != 1 || wack.Rows != c.rows {
			t.Fatalf("window ack = %+v", wack)
		}
		waitWindowsDone(t, ts, ack.JobID, i+1)
	}

	// Ledger: three distinct keys, each ρ — position is the MAX (one
	// window's ρ), not the sum. Parallel composition over buckets.
	var budget serve.Status
	getJSON(t, ts.Client(), ts.URL+"/datasets/"+info.ID+"/budget", &budget)
	if math.Abs(budget.SpentRho-rho1) > 1e-12 {
		t.Fatalf("spent ρ = %v, want one window's %v (max over %d distinct keys)", budget.SpentRho, rho1, len(cuts))
	}
	if len(budget.WindowRho) != len(cuts) {
		t.Fatalf("window keys = %v, want %d", budget.WindowRho, len(cuts))
	}
	for k, v := range budget.WindowRho {
		if math.Abs(v-rho1) > 1e-12 {
			t.Fatalf("key %s = %v, want %v", k, v, rho1)
		}
	}

	// Sealed buckets are immutable within the epoch.
	if _, code, _ := putWindow(t, ts, info.ID, cuts[0].bucket, cuts[0].csv); code != http.StatusConflict {
		t.Fatalf("re-PUT sealed bucket = %d, want 409", code)
	}

	// Seal: the follow job drains and finishes.
	if code := sealFeed(t, ts, info.ID); code != http.StatusOK {
		t.Fatalf("seal = %d", code)
	}
	done := pollJob(t, ts.Client(), ts.URL, ack.JobID)
	if done.State != serve.JobDone || done.WindowsDone != len(cuts) {
		t.Fatalf("follow job = %s (%s), %d windows", done.State, done.Error, done.WindowsDone)
	}
	got, code := fetchCSV(t, ts, ack.JobID)
	if code != http.StatusOK {
		t.Fatalf("result.csv = %d", code)
	}

	// Live-source equivalence: the followed release is byte-identical
	// to batch SynthesizeTimeWindows over the same records at the same
	// seed (same bucket IDs ⇒ same per-window seeds).
	var assembled *netdpsyn.Table
	for _, c := range cuts {
		part, err := netdpsyn.LoadCSV(strings.NewReader(c.csv), netdpsyn.FlowSchema(label))
		if err != nil {
			t.Fatal(err)
		}
		if assembled == nil {
			assembled = part
		} else if err := assembled.AppendRowRange(part, 0, part.NumRows()); err != nil {
			t.Fatal(err)
		}
	}
	if got != librarySpanCSV(t, assembled, netdpsyn.Config{Epsilon: 1, Delta: 1e-5, UpdateIterations: 3, Seed: 5}, span) {
		t.Fatal("followed release differs from batch SynthesizeTimeWindows at the same seed")
	}

	// Epoch 2: re-PUT ONE bucket (the feed reopens), follow again.
	// Only that bucket's key doubles; the ledger position goes to 2ρ.
	wack, code, body := putWindow(t, ts, info.ID, cuts[1].bucket, cuts[1].csv)
	if code != http.StatusCreated || wack.Epoch != 2 {
		t.Fatalf("epoch-2 PUT = %d (%+v %s)", code, wack, body)
	}
	req2 := req
	req2.Seed = 6 // a fresh release, not a cache hit
	var ack2 serve.SynthesisResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/datasets/"+info.ID+"/synthesize", req2, &ack2); code != http.StatusAccepted {
		t.Fatalf("epoch-2 follow submit = %d", code)
	}
	if ack2.Epoch != 2 {
		t.Fatalf("epoch-2 ack = %+v", ack2)
	}
	waitWindowsDone(t, ts, ack2.JobID, 1)
	if code := sealFeed(t, ts, info.ID); code != http.StatusOK {
		t.Fatalf("seal 2 = %d", code)
	}
	if done := pollJob(t, ts.Client(), ts.URL, ack2.JobID); done.State != serve.JobDone {
		t.Fatalf("epoch-2 job = %s (%s)", done.State, done.Error)
	}
	getJSON(t, ts.Client(), ts.URL+"/datasets/"+info.ID+"/budget", &budget)
	if math.Abs(budget.SpentRho-2*rho1) > 1e-12 {
		t.Fatalf("spent ρ after re-release = %v, want %v (the re-released key leads)", budget.SpentRho, 2*rho1)
	}
	reKey := persist.WindowKey(span, cuts[1].bucket)
	for k, v := range budget.WindowRho {
		want := rho1
		if k == reKey {
			want = 2 * rho1
		}
		if math.Abs(v-want) > 1e-12 {
			t.Fatalf("key %s = %v, want %v", k, v, want)
		}
	}

	// A third distinct release no longer fits the 2.5ρ ceiling: the
	// sequential axis of the same-bucket key has consumed it. 403 at
	// admission.
	req3 := req
	req3.Seed = 7
	if code := postJSON(t, ts.Client(), ts.URL+"/datasets/"+info.ID+"/synthesize", req3, nil); code != http.StatusForbidden {
		t.Fatalf("over-ceiling follow submit = %d, want 403", code)
	}
}

// TestFeedValidation covers the feed/PUT error surface: gating
// without the volatile opt-in, non-feed PUTs, malformed buckets,
// wrong-bucket rows, declared-range rejection at the door, and the
// per-window row cap.
func TestFeedValidation(t *testing.T) {
	csvBody, label := sortedFlowCSV(t, 300)
	span := flowSpan(t, csvBody, label, 3)
	cuts := cutBuckets(t, csvBody, label, span)

	// No state dir, no opt-in: feed registrations are refused.
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	if _, code := register(t, ts, fmt.Sprintf("label=%s&feed=1&span=%d", label, span), ""); code != http.StatusBadRequest {
		t.Fatalf("volatile feed register = %d, want 400", code)
	}
	// A non-feed dataset refuses PUTs and follow jobs.
	info, code := register(t, ts, "label="+label, csvBody)
	if code != http.StatusCreated {
		t.Fatalf("plain register = %d", code)
	}
	if _, code, _ := putWindow(t, ts, info.ID, 0, cuts[0].csv); code != http.StatusBadRequest {
		t.Fatalf("PUT on non-feed = %d, want 400", code)
	}
	if code := postJSON(t, ts.Client(), ts.URL+"/datasets/"+info.ID+"/synthesize",
		serve.SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Follow: true}, nil); code != http.StatusBadRequest {
		t.Fatalf("follow on non-feed = %d, want 400", code)
	}
	if code := sealFeed(t, ts, info.ID); code != http.StatusBadRequest {
		t.Fatalf("seal on non-feed = %d, want 400", code)
	}
	// span/bucket params outside feed mode are a 400, not ignored.
	if _, code := register(t, ts, fmt.Sprintf("label=%s&span=%d", label, span), csvBody); code != http.StatusBadRequest {
		t.Fatalf("span without feed = %d, want 400", code)
	}
	ts.Close()
	shutdownSrv(t, s)

	// Volatile opt-in active, with a declared bucket range and a
	// tight per-window row cap.
	lo, hi := cuts[0].bucket, cuts[len(cuts)-1].bucket
	s = newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 1, AllowVolatileFeed: true, MaxWindowRows: 250})
	ts = httptest.NewServer(s.Handler())
	defer ts.Close()
	defer shutdownSrv(t, s)
	info, code = register(t, ts, fmt.Sprintf("label=%s&feed=1&span=%d&bucket_lo=%d&bucket_hi=%d", label, span, lo, hi), "")
	if code != http.StatusCreated {
		t.Fatalf("feed register = %d", code)
	}
	if info.BucketLo == nil || *info.BucketLo != lo || info.BucketHi == nil || *info.BucketHi != hi {
		t.Fatalf("declared range = %+v", info)
	}
	// A feed registration with a body is refused.
	if _, code := register(t, ts, fmt.Sprintf("label=%s&feed=1&span=%d", label, span), csvBody); code != http.StatusBadRequest {
		t.Fatalf("feed register with body = %d, want 400", code)
	}
	// Malformed bucket in the path.
	reqq, _ := http.NewRequest(http.MethodPut, ts.URL+"/datasets/"+info.ID+"/windows/notanumber", strings.NewReader(cuts[0].csv))
	resp, err := ts.Client().Do(reqq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad bucket = %d, want 400", resp.StatusCode)
	}
	// Rows that belong to a different bucket than the path claims
	// (the claimed bucket is inside the declared range, so this is
	// the membership check, not the range check).
	if _, code, body := putWindow(t, ts, info.ID, cuts[1].bucket, cuts[0].csv); code != http.StatusBadRequest || !strings.Contains(body, "belongs to bucket") {
		t.Fatalf("cross-bucket PUT = %d (%s), want 400", code, body)
	}
	// Outside the declared range: rejected at the door, 422.
	if _, code, _ := putWindow(t, ts, info.ID, hi+10, cuts[0].csv); code != http.StatusUnprocessableEntity {
		t.Fatalf("out-of-range PUT = %d, want 422", code)
	}
	// An empty window body is refused.
	header := cuts[0].csv[:strings.Index(cuts[0].csv, "\n")+1]
	if _, code, _ := putWindow(t, ts, info.ID, cuts[0].bucket, header); code != http.StatusBadRequest {
		t.Fatalf("empty window PUT = %d, want 400", code)
	}
	// Past the per-window row cap: 413, the bounded-memory guard.
	var big *bucketCut
	for i := range cuts {
		if cuts[i].rows > 250 {
			big = &cuts[i]
			break
		}
	}
	if big != nil {
		if _, code, _ := putWindow(t, ts, info.ID, big.bucket, big.csv); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("over-cap PUT = %d, want 413", code)
		}
	}
}

// TestFollowDeclaredRangeReportsEmptyBuckets: a follow job on a feed
// with a declared bucket range reports the declared-but-empty buckets
// explicitly when it finishes — the occupancy disclosure is made
// auditable instead of silently omitting absent windows.
func TestFollowDeclaredRangeReportsEmptyBuckets(t *testing.T) {
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 1, AllowVolatileFeed: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer shutdownSrv(t, s)

	csvBody, label := sortedFlowCSV(t, 300)
	span := flowSpan(t, csvBody, label, 3)
	cuts := cutBuckets(t, csvBody, label, span)
	if len(cuts) < 2 {
		t.Fatalf("want ≥ 2 buckets, got %d", len(cuts))
	}
	lo, hi := cuts[0].bucket, cuts[0].bucket+4
	info, code := register(t, ts, fmt.Sprintf("label=%s&feed=1&span=%d&bucket_lo=%d&bucket_hi=%d", label, span, lo, hi), "")
	if code != http.StatusCreated {
		t.Fatalf("feed register = %d", code)
	}
	var ack serve.SynthesisResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/datasets/"+info.ID+"/synthesize",
		serve.SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Seed: 9, Follow: true}, &ack); code != http.StatusAccepted {
		t.Fatalf("follow submit = %d", code)
	}
	if _, code, _ := putWindow(t, ts, info.ID, cuts[0].bucket, cuts[0].csv); code != http.StatusCreated {
		t.Fatalf("PUT = %d", code)
	}
	waitWindowsDone(t, ts, ack.JobID, 1)
	if code := sealFeed(t, ts, info.ID); code != http.StatusOK {
		t.Fatalf("seal = %d", code)
	}
	done := pollJob(t, ts.Client(), ts.URL, ack.JobID)
	if done.State != serve.JobDone {
		t.Fatalf("job = %s (%s)", done.State, done.Error)
	}
	if len(done.EmptyBuckets) != 4 {
		t.Fatalf("empty_buckets = %v, want the 4 unreleased buckets of [%d, %d]", done.EmptyBuckets, lo, hi)
	}
	for _, b := range done.EmptyBuckets {
		if b == cuts[0].bucket {
			t.Fatalf("released bucket %d reported empty", b)
		}
	}
}

// TestPerWindowKeyComposition unit-drives the Budget axes directly:
// distinct keys of one span cost their max, the same key accumulates
// sequentially to a refusal, spans add, and the scalar axis stacks on
// top.
func TestPerWindowKeyComposition(t *testing.T) {
	b, err := serve.NewBudget(1.5, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	// Three distinct buckets at ρ=1: position stays 1 (max, not sum).
	for _, bucket := range []int64{10, 11, 12} {
		if err := b.ChargeWindow(100, bucket, 1.0, nil); err != nil {
			t.Fatalf("distinct bucket %d: %v", bucket, err)
		}
	}
	if st := b.Snapshot(); math.Abs(st.SpentRho-1.0) > 1e-12 {
		t.Fatalf("spent = %v, want 1.0 (max over distinct keys)", st.SpentRho)
	}
	// Re-charging one key would take it to 2.0 > 1.5: refused, ledger
	// unmutated.
	if err := b.ChargeWindow(100, 11, 1.0, nil); !errors.Is(err, serve.ErrBudgetExceeded) {
		t.Fatalf("same-key re-release = %v, want ErrBudgetExceeded", err)
	}
	if st := b.Snapshot(); math.Abs(st.SpentRho-1.0) > 1e-12 {
		t.Fatalf("refused charge mutated the ledger: %v", st.SpentRho)
	}
	// A half-price re-release of the same key fits: 1.5 exactly.
	if err := b.ChargeWindow(100, 11, 0.5, nil); err != nil {
		t.Fatalf("half re-release: %v", err)
	}
	if st := b.Snapshot(); math.Abs(st.SpentRho-1.5) > 1e-12 {
		t.Fatalf("spent = %v, want 1.5", st.SpentRho)
	}
	// A different span's keys ADD to the position (the buckets
	// overlap arbitrarily across spans): any further charge overdraws.
	if err := b.ChargeWindow(50, 10, 0.1, nil); !errors.Is(err, serve.ErrBudgetExceeded) {
		t.Fatalf("cross-span charge past ceiling = %v, want ErrBudgetExceeded", err)
	}

	// Scalar + per-key stack: a fresh ledger with 1.0 scalar spend has
	// only 0.5 headroom for window keys.
	b2, err := serve.NewBudget(1.5, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.ChargeAdmission(1.0, 1.0, nil); err != nil {
		t.Fatal(err)
	}
	if err := b2.ChargeWindow(100, 1, 1.0, nil); !errors.Is(err, serve.ErrBudgetExceeded) {
		t.Fatalf("window charge over scalar spend = %v, want ErrBudgetExceeded", err)
	}
	if err := b2.ChargeWindow(100, 1, 0.5, nil); err != nil {
		t.Fatalf("fitting window charge: %v", err)
	}
	if st := b2.Snapshot(); math.Abs(st.SpentRho-1.5) > 1e-12 {
		t.Fatalf("combined spent = %v, want 1.5", st.SpentRho)
	}
}

// TestBadWindowPutDoesNotPoisonJournal: a client-rejected PUT (rows
// in the wrong bucket) must leave NO durable trace — a corrected
// retry of the same bucket succeeds, and a restart replays the epoch
// cleanly instead of marking it damaged.
func TestBadWindowPutDoesNotPoisonJournal(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 1, StateDir: dir})
	ts := httptest.NewServer(s.Handler())
	client := ts.Client()
	_ = client

	csvBody, label := sortedFlowCSV(t, 300)
	span := flowSpan(t, csvBody, label, 3)
	cuts := cutBuckets(t, csvBody, label, span)
	info, code := register(t, ts, fmt.Sprintf("label=%s&feed=1&span=%d", label, span), "")
	if code != http.StatusCreated {
		t.Fatalf("feed register = %d", code)
	}
	// Wrong rows for the claimed bucket: 400, and — the point —
	// nothing journaled.
	if _, code, _ := putWindow(t, ts, info.ID, cuts[1].bucket, cuts[0].csv); code != http.StatusBadRequest {
		t.Fatalf("cross-bucket PUT = %d, want 400", code)
	}
	// The corrected retry of the SAME bucket succeeds (no phantom
	// seal from the failed attempt).
	if _, code, _ := putWindow(t, ts, info.ID, cuts[1].bucket, cuts[1].csv); code != http.StatusCreated {
		t.Fatalf("corrected re-PUT = %d, want 201", code)
	}
	shutdownSrv(t, s)
	ts.Close()

	s2 := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 1, StateDir: dir})
	defer shutdownSrv(t, s2)
	rec := s2.Recovery()
	if rec.FeedWindows != 1 || len(rec.Warnings) != 0 {
		t.Fatalf("recovery after rejected PUT = %+v, want 1 clean window and no damage", rec)
	}
}

// TestDeclaredRangeOverflowRejected: a declared range wide enough to
// overflow int64 arithmetic is refused at registration and at span
// submit — the finished-job report enumerates the range, so an
// unbounded one must never be admitted.
func TestDeclaredRangeOverflowRejected(t *testing.T) {
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 1, AllowVolatileFeed: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer shutdownSrv(t, s)

	csvBody, label := sortedFlowCSV(t, 150)
	if _, code := register(t, ts,
		fmt.Sprintf("label=%s&feed=1&span=100&bucket_lo=%d&bucket_hi=%d", label, int64(-1<<62), int64(1<<62)), ""); code != http.StatusBadRequest {
		t.Fatalf("overflowing feed range = %d, want 400", code)
	}
	if _, code := register(t, ts,
		fmt.Sprintf("label=%s&feed=1&span=100&bucket_lo=0&bucket_hi=%d", label, int64(1<<40)), ""); code != http.StatusBadRequest {
		t.Fatalf("huge feed range = %d, want 400", code)
	}
	// Span jobs with a request-level range hit the same cap.
	info, code := register(t, ts, "label="+label, csvBody)
	if code != http.StatusCreated {
		t.Fatalf("register = %d", code)
	}
	lo, hi := int64(-1<<62), int64(1<<62)
	req := serve.SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Seed: 1, WindowSpan: 100, BucketLo: &lo, BucketHi: &hi}
	if code := postJSON(t, ts.Client(), ts.URL+"/datasets/"+info.ID+"/synthesize", req, nil); code != http.StatusBadRequest {
		t.Fatalf("overflowing span-job range = %d, want 400", code)
	}
}

// TestResultRetentionPolicy drives result retention on a durable
// daemon: -max-results bounds the results/ files on disk, the TTL
// sweep ages them out, evicted results answer 410 Gone, and an
// identical resubmit regenerates the evicted file at zero budget cost.
func TestResultRetentionPolicy(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 1, StateDir: dir, MaxResults: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	csvBody, label := sortedFlowCSV(t, 150)
	info, code := register(t, ts, "label="+label, csvBody)
	if code != http.StatusCreated {
		t.Fatalf("register = %d", code)
	}
	reqA := serve.SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Seed: 1}
	var ackA serve.SynthesisResponse
	if code := postJSON(t, client, ts.URL+"/datasets/"+info.ID+"/synthesize", reqA, &ackA); code != http.StatusAccepted {
		t.Fatalf("submit A = %d", code)
	}
	if done := pollJob(t, client, ts.URL, ackA.JobID); done.State != serve.JobDone {
		t.Fatalf("job A = %s", done.State)
	}
	fileA := filepath.Join(dir, "results", ackA.JobID+".csv")
	if _, err := os.Stat(fileA); err != nil {
		t.Fatalf("job A's result file missing: %v", err)
	}

	// A second finished job pushes A past -max-results=1: its file
	// goes.
	reqB := reqA
	reqB.Seed = 2
	var ackB serve.SynthesisResponse
	if code := postJSON(t, client, ts.URL+"/datasets/"+info.ID+"/synthesize", reqB, &ackB); code != http.StatusAccepted {
		t.Fatalf("submit B = %d", code)
	}
	if done := pollJob(t, client, ts.URL, ackB.JobID); done.State != serve.JobDone {
		t.Fatalf("job B = %s", done.State)
	}
	if _, err := os.Stat(fileA); !os.IsNotExist(err) {
		t.Fatalf("job A's result file should be swept past -max-results, stat = %v", err)
	}
	if _, code := fetchCSV(t, ts, ackA.JobID); code != http.StatusGone {
		t.Fatalf("evicted result.csv = %d, want 410 Gone", code)
	}

	// The identical resubmit resurrects the deterministic job at zero
	// charge and regenerates the file.
	spent := 0.0
	{
		var budget serve.Status
		getJSON(t, client, ts.URL+"/datasets/"+info.ID+"/budget", &budget)
		spent = budget.SpentRho
	}
	var ackA2 serve.SynthesisResponse
	if code := postJSON(t, client, ts.URL+"/datasets/"+info.ID+"/synthesize", reqA, &ackA2); code != http.StatusAccepted {
		t.Fatalf("resubmit A = %d", code)
	}
	if !ackA2.Cached || ackA2.JobID != ackA.JobID {
		t.Fatalf("resubmit A: cached=%v job=%s", ackA2.Cached, ackA2.JobID)
	}
	if done := pollJob(t, client, ts.URL, ackA.JobID); done.State != serve.JobDone {
		t.Fatalf("resurrected job A = %s (%s)", done.State, done.Error)
	}
	if body, code := fetchCSV(t, ts, ackA.JobID); code != http.StatusOK || len(body) == 0 {
		t.Fatalf("regenerated result.csv = %d (%d bytes)", code, len(body))
	}
	var budget serve.Status
	getJSON(t, client, ts.URL+"/datasets/"+info.ID+"/budget", &budget)
	if math.Abs(budget.SpentRho-spent) > 1e-12 {
		t.Fatalf("regeneration charged the ledger: %v → %v", spent, budget.SpentRho)
	}
	shutdownSrv(t, s)

	// Age-based TTL: a finished result older than -result-ttl is
	// swept by the background ticker without any new job arriving.
	dir2 := t.TempDir()
	s2 := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 1, StateDir: dir2, ResultTTL: 150 * time.Millisecond})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer shutdownSrv(t, s2)
	info2, code := register(t, ts2, "label="+label, csvBody)
	if code != http.StatusCreated {
		t.Fatalf("register 2 = %d", code)
	}
	var ackC serve.SynthesisResponse
	if code := postJSON(t, ts2.Client(), ts2.URL+"/datasets/"+info2.ID+"/synthesize", reqA, &ackC); code != http.StatusAccepted {
		t.Fatalf("submit C = %d", code)
	}
	if done := pollJob(t, ts2.Client(), ts2.URL, ackC.JobID); done.State != serve.JobDone {
		t.Fatalf("job C = %s", done.State)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, code := fetchCSV(t, ts2, ackC.JobID); code == http.StatusGone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("TTL sweep never evicted the finished result")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, err := os.Stat(filepath.Join(dir2, "results", ackC.JobID+".csv")); !os.IsNotExist(err) {
		t.Fatalf("TTL-swept result file still on disk: %v", err)
	}
}

// TestListJobs covers the GET /jobs operator listing with dataset and
// status filters.
func TestListJobs(t *testing.T) {
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer shutdownSrv(t, s)

	csvBody, label := sortedFlowCSV(t, 150)
	infoA, code := register(t, ts, "label="+label, csvBody)
	if code != http.StatusCreated {
		t.Fatalf("register A = %d", code)
	}
	infoB, code := register(t, ts, "label="+label, csvBody)
	if code != http.StatusCreated {
		t.Fatalf("register B = %d", code)
	}
	var acks []serve.SynthesisResponse
	for i, ds := range []string{infoA.ID, infoA.ID, infoB.ID} {
		var ack serve.SynthesisResponse
		req := serve.SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Seed: uint64(i + 1)}
		if code := postJSON(t, ts.Client(), ts.URL+"/datasets/"+ds+"/synthesize", req, &ack); code != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, code)
		}
		acks = append(acks, ack)
		pollJob(t, ts.Client(), ts.URL, ack.JobID)
	}

	var all []serve.JobInfo
	if code := getJSON(t, ts.Client(), ts.URL+"/jobs", &all); code != http.StatusOK {
		t.Fatalf("GET /jobs = %d", code)
	}
	if len(all) != 3 {
		t.Fatalf("jobs = %d, want 3", len(all))
	}
	// Admission order.
	for i := range all {
		if all[i].ID != acks[i].JobID {
			t.Fatalf("job %d = %s, want %s (admission order)", i, all[i].ID, acks[i].JobID)
		}
	}
	var forA []serve.JobInfo
	if code := getJSON(t, ts.Client(), ts.URL+"/jobs?dataset="+infoA.ID, &forA); code != http.StatusOK {
		t.Fatalf("GET /jobs?dataset = %d", code)
	}
	if len(forA) != 2 {
		t.Fatalf("dataset filter = %d jobs, want 2", len(forA))
	}
	var doneJobs []serve.JobInfo
	if code := getJSON(t, ts.Client(), ts.URL+"/jobs?status=done", &doneJobs); code != http.StatusOK {
		t.Fatalf("GET /jobs?status = %d", code)
	}
	if len(doneJobs) != 3 {
		t.Fatalf("status filter = %d, want 3 done", len(doneJobs))
	}
	var none []serve.JobInfo
	if code := getJSON(t, ts.Client(), ts.URL+"/jobs?status=running", &none); code != http.StatusOK || len(none) != 0 {
		t.Fatalf("running filter = %d jobs (code %d), want 0", len(none), code)
	}
	if code := getJSON(t, ts.Client(), ts.URL+"/jobs?status=bogus", nil); code != http.StatusBadRequest {
		t.Fatalf("bad status = %d, want 400", code)
	}
	if code := getJSON(t, ts.Client(), ts.URL+"/jobs?dataset=ds-99", nil); code != http.StatusNotFound {
		t.Fatalf("unknown dataset = %d, want 404", code)
	}
}

// gatedBody is a request body that reports its first Read and then
// blocks until released. Sent with Expect: 100-continue, the client
// reads it only after the server's handler has started reading the
// body, so started proves the PUT is inside its handler.
type gatedBody struct {
	started chan struct{}
	release chan struct{}
	once    bool
	r       io.Reader
}

func (g *gatedBody) Read(p []byte) (int, error) {
	if !g.once {
		g.once = true
		close(g.started)
		<-g.release
	}
	return g.r.Read(p)
}

// TestShutdownWithOpenFollowStream: Shutdown while a follower streams
// a follow job's result.csv through the daemon's own listener must
// not wait on that stream before sealing the feed (the stream ends
// only once the feed is sealed). A window PUT already inside its
// handler lands first; a PUT after the drain began gets 503. The
// follower then receives every acknowledged window's rows and a clean
// EOF.
func TestShutdownWithOpenFollowStream(t *testing.T) {
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 1, AllowVolatileFeed: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	daemonURL := "http://" + ln.Addr().String()

	csvBody, label := sortedFlowCSV(t, 600)
	span := flowSpan(t, csvBody, label, 3)
	cuts := cutBuckets(t, csvBody, label, span)
	if len(cuts) < 3 {
		t.Fatalf("want ≥ 3 buckets, got %d", len(cuts))
	}
	cuts = cuts[:3]
	info, code := register(t, ts, fmt.Sprintf("schema=flow&label=%s&feed=1&span=%d&budget_rho=1&budget_delta=1e-5", label, span), "")
	if code != http.StatusCreated {
		t.Fatalf("feed register = %d", code)
	}
	var ack serve.SynthesisResponse
	req := serve.SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Seed: 5, Follow: true}
	if code := postJSON(t, ts.Client(), ts.URL+"/datasets/"+info.ID+"/synthesize", req, &ack); code != http.StatusAccepted {
		t.Fatalf("follow submit = %d", code)
	}
	if _, code, body := putWindow(t, ts, info.ID, cuts[0].bucket, cuts[0].csv); code != http.StatusCreated {
		t.Fatalf("PUT window 0 = %d (%s)", code, body)
	}
	waitWindowsDone(t, ts, ack.JobID, 1)

	// The follower streams through the daemon's listener: the
	// connection Shutdown's HTTP drain would otherwise wait on.
	resp, err := http.Get(daemonURL + "/jobs/" + ack.JobID + "/result.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow result.csv = %d", resp.StatusCode)
	}
	type readResult struct {
		body []byte
		err  error
	}
	streamed := make(chan readResult, 1)
	go func() {
		b, err := io.ReadAll(resp.Body)
		streamed <- readResult{b, err}
	}()

	if _, code, body := putWindow(t, ts, info.ID, cuts[1].bucket, cuts[1].csv); code != http.StatusCreated {
		t.Fatalf("PUT window 1 = %d (%s)", code, body)
	}
	waitWindowsDone(t, ts, ack.JobID, 2)

	// The third window's PUT is inside its handler when Shutdown starts.
	gb := &gatedBody{started: make(chan struct{}), release: make(chan struct{}), r: strings.NewReader(cuts[2].csv)}
	release := sync.OnceFunc(func() { close(gb.release) })
	defer release() // a failed assertion must not leave the PUT blocking ts.Close
	put, err := http.NewRequest(http.MethodPut, fmt.Sprintf("%s/datasets/%s/windows/%d", ts.URL, info.ID, cuts[2].bucket), gb)
	if err != nil {
		t.Fatal(err)
	}
	put.ContentLength = int64(len(cuts[2].csv))
	put.Header.Set("Expect", "100-continue")
	slowClient := &http.Client{Transport: &http.Transport{ExpectContinueTimeout: time.Minute}}
	putCode := make(chan int, 1)
	go func() {
		r, err := slowClient.Do(put)
		if err != nil {
			putCode <- -1
			return
		}
		r.Body.Close()
		putCode <- r.StatusCode
	}()
	<-gb.started

	start := time.Now()
	shutErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutErr <- s.Shutdown(ctx)
	}()
	// Once the drain has begun a PUT is refused up front (503), before
	// the sealed-bucket check that would answer 409.
	for {
		_, code, _ := putWindow(t, ts, info.ID, cuts[0].bucket, cuts[0].csv)
		if code == http.StatusServiceUnavailable {
			break
		}
		if code != http.StatusConflict || time.Since(start) > 10*time.Second {
			t.Fatalf("PUT during shutdown = %d after %v, want 503 once the drain begins", code, time.Since(start))
		}
		time.Sleep(5 * time.Millisecond)
	}
	release()
	if code := <-putCode; code != http.StatusCreated {
		t.Fatalf("in-flight PUT = %d, want 201", code)
	}
	if err := <-shutErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("shutdown took %v with an open follow stream", elapsed)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}

	got := <-streamed
	if got.err != nil {
		t.Fatalf("follow stream ended with %v, want clean EOF", got.err)
	}
	j, err := s.WaitJob(ack.JobID, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if snap := j.Snapshot(); snap.State != serve.JobDone || snap.WindowsDone != len(cuts) {
		t.Fatalf("follow job after shutdown = %s, %d windows; want done, %d", snap.State, snap.WindowsDone, len(cuts))
	}
	final, code := fetchCSV(t, ts, ack.JobID)
	if code != http.StatusOK {
		t.Fatalf("result.csv after shutdown = %d", code)
	}
	if string(got.body) != final {
		t.Fatalf("follower got %d bytes, the finished result is %d", len(got.body), len(final))
	}
}
