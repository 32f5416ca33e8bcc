package serve

// Crash/restart tests for the durable service state. These run inside
// the serve package so a "crash" can be simulated faithfully: the
// store is closed abruptly underneath a live server — no drain, no
// compaction, in-flight jobs abandoned mid-run exactly as a kill -9
// would leave them — and a second server is then recovered from the
// same state dir. The subprocess SIGKILL harness lives in
// cmd/netdpsynd; this file covers the same contract at unit speed.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	netdpsyn "github.com/netdpsyn/netdpsyn"
	"github.com/netdpsyn/netdpsyn/internal/core"
	"github.com/netdpsyn/netdpsyn/internal/datagen"
	"github.com/netdpsyn/netdpsyn/internal/serve/persist"
)

// registerFlow registers a small emulated TON flow trace over HTTP
// and returns the dataset id.
func registerFlow(t *testing.T, ts *httptest.Server, rows int, query string) string {
	t.Helper()
	raw, err := datagen.Generate(datagen.TON, datagen.Config{Rows: rows, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := raw.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/datasets?label=" + datagen.LabelField(datagen.TON)
	if query != "" {
		url += "&" + query
	}
	resp, err := ts.Client().Post(url, "text/csv", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register = %d", resp.StatusCode)
	}
	return info.ID
}

// submit posts a synthesis request and returns the response + status.
func submit(t *testing.T, ts *httptest.Server, dsID string, req SynthesisRequest) (SynthesisResponse, int) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/datasets/"+dsID+"/synthesize", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack SynthesisResponse
	_ = json.NewDecoder(resp.Body).Decode(&ack)
	return ack, resp.StatusCode
}

// TestRestartRecovery is the in-process acceptance walkthrough: crash
// the daemon with one job finished and one mid-run, restart from the
// same state dir, and assert (1) cumulative ρ is monotone across the
// restart, (2) the interrupted job replays as a charged failure, (3)
// a request past the ceiling still gets 403, and (4) an identical
// resubmit of the completed job is served from cache at zero new
// spend.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	jobRho, err := netdpsyn.RhoFromEpsDelta(1.0, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	ceiling := 2.5 * jobRho // two releases fit, a third does not

	s1, err := NewServer(Options{StateDir: dir, MaxConcurrentJobs: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	dsID := registerFlow(t, ts1, 200, fmt.Sprintf("budget_rho=%g&budget_delta=1e-5", ceiling))

	// Job A completes before the crash.
	reqA := SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Seed: 11}
	ackA, code := submit(t, ts1, dsID, reqA)
	if code != http.StatusAccepted {
		t.Fatalf("job A = %d", code)
	}
	jA, err := s1.WaitJob(ackA.JobID, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if jA.State() != JobDone {
		t.Fatalf("job A = %s (%s)", jA.State(), jA.Snapshot().Error)
	}

	// Job B is admitted (charged, journaled, fsync'd) and killed
	// mid-run: enough iterations (~1s of GUM rounds on one core) that
	// it cannot finish before the store is yanked a few statements
	// below, even when the scheduler runs the job ahead of this
	// goroutine.
	reqB := SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 120000, Seed: 12}
	ackB, code := submit(t, ts1, dsID, reqB)
	if code != http.StatusAccepted {
		t.Fatalf("job B = %d", code)
	}
	preCrash := 2 * jobRho

	// Crash: close the journal underneath the live server and walk
	// away. No drain, no compaction; B's runner keeps computing in the
	// background but its terminal record has nowhere to land — the
	// journal's last word on B is its admission charge.
	if err := s1.store.Close(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// Restart from the same state dir.
	s2, err := NewServer(Options{StateDir: dir, MaxConcurrentJobs: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	rec := s2.Recovery()
	if rec == nil {
		t.Fatal("no recovery info with a state dir")
	}
	if rec.Datasets != 1 || rec.Jobs != 2 || rec.InterruptedJobs != 1 {
		t.Fatalf("recovery = %+v", rec)
	}

	// (1) Spend is monotone across the restart: the replayed ledger
	// holds both admission charges, including the interrupted job's.
	d, ok := s2.reg.Get(dsID)
	if !ok {
		t.Fatalf("dataset %s not recovered", dsID)
	}
	spent := d.Budget().Snapshot().SpentRho
	if spent < preCrash-1e-12 {
		t.Fatalf("spend shrank across restart: %v < %v", spent, preCrash)
	}
	if math.Abs(spent-preCrash) > 1e-12 {
		t.Fatalf("recovered spend = %v, want %v", spent, preCrash)
	}

	// (2) The interrupted job replays as a charged failure: its ρ is
	// retained, its state is failed, and it was not silently re-run.
	jB, ok := s2.queue.Get(ackB.JobID)
	if !ok {
		t.Fatalf("interrupted job %s not recovered", ackB.JobID)
	}
	infoB := jB.Snapshot()
	if infoB.State != JobFailed || !strings.Contains(infoB.Error, "restart") {
		t.Fatalf("interrupted job = %s (%q), want charged failure", infoB.State, infoB.Error)
	}
	if math.Abs(infoB.Rho-jobRho) > 1e-12 {
		t.Fatalf("interrupted job ρ = %v, want %v", infoB.Rho, jobRho)
	}

	// (3) A third distinct release would cross the ceiling: 403, and
	// the ledger is untouched.
	if _, code := submit(t, ts2, dsID, SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Seed: 13}); code != http.StatusForbidden {
		t.Fatalf("over-ceiling after restart = %d, want 403", code)
	}
	if got := d.Budget().Snapshot().SpentRho; math.Abs(got-spent) > 1e-12 {
		t.Fatalf("403 changed the ledger: %v → %v", spent, got)
	}

	// (4) The completed job's synthesized CSV was spooled (and
	// fsync'd) before its done terminal was journaled, so the restarted
	// daemon serves it directly — no recomputation. An identical
	// resubmit cache-hits the recovered job at zero new charge.
	if rec.PersistedResults != 1 {
		t.Fatalf("recovery found %d persisted result(s), want 1", rec.PersistedResults)
	}
	ackA2, code := submit(t, ts2, dsID, reqA)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit A = %d", code)
	}
	if !ackA2.Cached || ackA2.JobID != ackA.JobID {
		t.Fatalf("resubmit A: cached=%v job=%s, want cache hit on %s", ackA2.Cached, ackA2.JobID, ackA.JobID)
	}
	if got := d.Budget().Snapshot().SpentRho; math.Abs(got-spent) > 1e-12 {
		t.Fatalf("cached resubmit charged the ledger: %v → %v", spent, got)
	}
	jA2, err := s2.WaitJob(ackA.JobID, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if jA2.State() != JobDone {
		t.Fatalf("recovered job A = %s, want done", jA2.State())
	}
	resp, err := http.Get(ts2.URL + "/jobs/" + ackA.JobID + "/result.csv")
	if err != nil {
		t.Fatal(err)
	}
	bodyA, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("persisted result.csv = %d (%s)", resp.StatusCode, bodyA)
	}
	if lines := strings.Count(string(bodyA), "\n"); lines < 2 {
		t.Fatalf("persisted result.csv has %d lines", lines)
	}

	// A clean shutdown compacts; a third boot replays from the
	// snapshot with nothing interrupted (the charged failure was
	// journaled at recovery, so it does not re-count).
	shutdownServer(t, s2)
	s3, err := NewServer(Options{StateDir: dir, MaxConcurrentJobs: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s3)
	rec3 := s3.Recovery()
	if rec3.InterruptedJobs != 0 {
		t.Fatalf("third boot re-counted interruptions: %+v", rec3)
	}
	if rec3.SpentRho < preCrash-1e-12 {
		t.Fatalf("spend shrank by the third boot: %v", rec3.SpentRho)
	}
	d3, _ := s3.reg.Get(dsID)
	if got := d3.Budget().Snapshot().SpentRho; math.Abs(got-spent) > 1e-12 {
		t.Fatalf("third-boot spend = %v, want %v", got, spent)
	}
}

// TestFollowResumeAcrossRestart is the continuous-ingest crash
// contract, in-process: a follow job mid-epoch survives a crash — the
// restarted daemon rebuilds the feed from journaled windows, RESUMES
// the job (same id) with exact per-key ledger positions, re-releases
// the already-charged buckets at zero new cost, and picks up the next
// bucket PUT after the restart. The subprocess SIGKILL twin lives in
// cmd/netdpsynd.
func TestFollowResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	jobRho, err := netdpsyn.RhoFromEpsDelta(1.0, 1e-5)
	if err != nil {
		t.Fatal(err)
	}

	s1, err := NewServer(Options{StateDir: dir, MaxConcurrentJobs: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())

	// A feed dataset and its windows, cut from a sorted trace.
	raw, err := datagen.Generate(datagen.TON, datagen.Config{Rows: 360, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	raw = raw.SortBy(raw.Schema().Index(netdpsyn.FieldTS))
	tsCol := raw.Column(raw.Schema().Index(netdpsyn.FieldTS))
	span := (tsCol[len(tsCol)-1]-tsCol[0])/3 + 1
	type cut struct {
		bucket int64
		body   string
	}
	var cuts []cut
	for lo := 0; lo < raw.NumRows(); {
		b := netdpsyn.TimeBucket(tsCol[lo], span)
		hi := lo
		for hi < raw.NumRows() && netdpsyn.TimeBucket(tsCol[hi], span) == b {
			hi++
		}
		part := netdpsyn.NewTable(raw.Schema(), hi-lo)
		if err := part.AppendRowRange(raw, lo, hi); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := part.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		cuts = append(cuts, cut{bucket: b, body: buf.String()})
		lo = hi
	}
	if len(cuts) < 3 {
		t.Fatalf("want ≥ 3 buckets, got %d", len(cuts))
	}
	cuts = cuts[:3]

	regURL := fmt.Sprintf("%s/datasets?label=%s&feed=1&span=%d&budget_rho=%g&budget_delta=1e-5",
		ts1.URL, datagen.LabelField(datagen.TON), span, 2.5*jobRho)
	resp, err := ts1.Client().Post(regURL, "text/csv", nil)
	if err != nil {
		t.Fatal(err)
	}
	var dsInfo Info
	if err := json.NewDecoder(resp.Body).Decode(&dsInfo); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("feed register = %d", resp.StatusCode)
	}

	put := func(ts *httptest.Server, c cut) int {
		req, err := http.NewRequest(http.MethodPut,
			fmt.Sprintf("%s/datasets/%s/windows/%d", ts.URL, dsInfo.ID, c.bucket), strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		r, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		return r.StatusCode
	}
	waitWindows := func(s *Server, jobID string, n int) JobInfo {
		t.Helper()
		deadline := time.Now().Add(120 * time.Second)
		for {
			j, ok := s.queue.Get(jobID)
			if !ok {
				t.Fatalf("job %s vanished", jobID)
			}
			info := j.Snapshot()
			if info.WindowsDone >= n || info.State == JobFailed {
				return info
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck at %d/%d (%s %s)", jobID, info.WindowsDone, n, info.State, info.Error)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	ack, code := submit(t, ts1, dsInfo.ID, SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Seed: 21, Follow: true})
	if code != http.StatusAccepted {
		t.Fatalf("follow submit = %d", code)
	}
	for _, c := range cuts[:2] {
		if code := put(ts1, c); code != http.StatusCreated {
			t.Fatalf("PUT = %d", code)
		}
	}
	waitWindows(s1, ack.JobID, 2)
	d1, _ := s1.reg.Get(dsInfo.ID)
	preCrash := d1.Budget().Snapshot()
	if math.Abs(preCrash.SpentRho-jobRho) > 1e-12 {
		t.Fatalf("pre-crash spend = %v, want %v (max over 2 keys)", preCrash.SpentRho, jobRho)
	}

	// Crash: journal yanked under the live server, follow job mid-epoch.
	if err := s1.store.Close(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	s2, err := NewServer(Options{StateDir: dir, MaxConcurrentJobs: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	rec := s2.Recovery()
	if rec.ResumedFollowJobs != 1 || rec.FeedWindows != 2 {
		t.Fatalf("recovery = %+v, want 1 resumed follow job over 2 feed windows", rec)
	}
	// Per-key positions are exact: the resumed job re-releases the two
	// charged buckets at zero new cost, so spend is unchanged (not
	// doubled) once it has re-emitted them.
	d2, ok := s2.reg.Get(dsInfo.ID)
	if !ok {
		t.Fatal("feed dataset not recovered")
	}
	waitWindows(s2, ack.JobID, 2)
	post := d2.Budget().Snapshot()
	if math.Abs(post.SpentRho-preCrash.SpentRho) > 1e-12 {
		t.Fatalf("resume changed spend: %v → %v (re-released buckets must not re-charge)", preCrash.SpentRho, post.SpentRho)
	}
	if len(post.WindowRho) != 2 {
		t.Fatalf("window keys after resume = %v", post.WindowRho)
	}

	// The NEXT bucket lands after the restart: the resumed job picks
	// it up (fresh charge on its key — still the max, so spend holds).
	if code := put(ts2, cuts[2]); code != http.StatusCreated {
		t.Fatalf("post-restart PUT = %d", code)
	}
	waitWindows(s2, ack.JobID, 3)
	if got := d2.Budget().Snapshot(); math.Abs(got.SpentRho-jobRho) > 1e-12 || len(got.WindowRho) != 3 {
		t.Fatalf("post-resume ledger = %+v", got)
	}

	// Seal → the job finishes with the complete 3-window result.
	resp2, err := ts2.Client().Post(ts2.URL+"/datasets/"+dsInfo.ID+"/seal", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	j, err := s2.WaitJob(ack.JobID, 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info := j.Snapshot(); info.State != JobDone || info.WindowsDone != 3 {
		t.Fatalf("resumed job = %s (%s), %d windows", info.State, info.Error, info.WindowsDone)
	}
	res, err := ts2.Client().Get(ts2.URL + "/jobs/" + ack.JobID + "/result.csv")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK || strings.Count(string(body), "\n") < 10 {
		t.Fatalf("resumed result.csv = %d (%d bytes)", res.StatusCode, len(body))
	}
	shutdownServer(t, s2)
}

func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSkippedDatasetIDNeverReused: a dataset that fails to re-ingest
// at recovery (spool lost) still keeps its id reserved — a new
// registration must never reuse it, since reuse would overwrite the
// old spool and conflate two ledgers in the durable state machine.
func TestSkippedDatasetIDNeverReused(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewServer(Options{StateDir: dir, MaxConcurrentJobs: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	if id := registerFlow(t, ts1, 100, ""); id != "ds-1" {
		t.Fatalf("first id = %s", id)
	}
	if id := registerFlow(t, ts1, 100, ""); id != "ds-2" {
		t.Fatalf("second id = %s", id)
	}
	shutdownServer(t, s1)
	ts1.Close()

	// Lose ds-2's spool: it cannot re-ingest at the next boot.
	if err := os.Remove(filepath.Join(dir, "spool", "ds-2.csv")); err != nil {
		t.Fatal(err)
	}
	s2, err := NewServer(Options{StateDir: dir, MaxConcurrentJobs: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s2)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	rec := s2.Recovery()
	if rec.Datasets != 1 || len(rec.Warnings) != 1 {
		t.Fatalf("recovery = %+v", rec)
	}
	if _, ok := s2.reg.Get("ds-2"); ok {
		t.Fatal("spool-less dataset should not have been restored")
	}
	// The skipped dataset's id stays burned: the next registration
	// gets a fresh one.
	if id := registerFlow(t, ts2, 100, ""); id != "ds-3" {
		t.Fatalf("post-recovery registration reused id: got %s, want ds-3", id)
	}
}

// failingSink fails every journal write, for fault injection.
type failingSink struct{}

func (failingSink) Write([]byte) (int, error) { return 0, errors.New("injected journal failure") }
func (failingSink) Sync() error               { return errors.New("injected journal failure") }

// TestJournalFailure503 locks in the satellite contract: when the
// journal cannot make a charge durable, the admission answers 503
// (retryable) and no unpersisted ρ is charged; registration behaves
// the same. Recovery of the sink restores normal service.
func TestJournalFailure503(t *testing.T) {
	dir := t.TempDir()
	s, err := NewServer(Options{StateDir: dir, MaxConcurrentJobs: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	dsID := registerFlow(t, ts, 150, "")
	d, _ := s.reg.Get(dsID)

	s.store.SetSink(failingSink{})

	// Admission: 503, ledger untouched, no job admitted.
	ack, code := submit(t, ts, dsID, SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Seed: 1})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("synthesize with failing journal = %d, want 503", code)
	}
	if st := d.Budget().Snapshot(); st.SpentRho != 0 || st.Releases != 0 {
		t.Fatalf("failing journal charged the ledger: %+v", st)
	}
	if ack.JobID != "" {
		t.Fatalf("failing journal admitted job %q", ack.JobID)
	}

	// Registration: also 503, nothing registered.
	raw, err := datagen.Generate(datagen.TON, datagen.Config{Rows: 100, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := raw.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/datasets?label="+datagen.LabelField(datagen.TON), "text/csv", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("register with failing journal = %d, want 503", resp.StatusCode)
	}
	if ds := s.reg.List(); len(ds) != 1 {
		t.Fatalf("failing journal registered a dataset: %d", len(ds))
	}

	// Sink recovers: the retried admission succeeds and charges once.
	s.store.SetSink(nil)
	ack, code = submit(t, ts, dsID, SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Seed: 1})
	if code != http.StatusAccepted {
		t.Fatalf("retried synthesize = %d, want 202", code)
	}
	if _, err := s.WaitJob(ack.JobID, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if st := d.Budget().Snapshot(); st.Releases != 1 {
		t.Fatalf("retry should charge exactly once: %+v", st)
	}
}

// failingChargeJournal implements chargeJournal and always fails.
type failingChargeJournal struct{}

func (failingChargeJournal) AppendCharge(persist.ChargeRecord) error {
	return errors.New("injected charge-journal failure")
}

func (failingChargeJournal) AppendWindowCharge(persist.WindowChargeRecord) error {
	return errors.New("injected charge-journal failure")
}

func (failingChargeJournal) AppendEvalCharge(persist.EvalChargeRecord) error {
	return errors.New("injected charge-journal failure")
}

// TestBudgetChargeJournalPlumbing unit-tests the error plumbing: a
// journal-write failure surfaces as ErrPersist from
// Budget.ChargeAdmission with the ledger unmutated, and is
// distinguishable from ErrBudgetExceeded.
func TestBudgetChargeJournalPlumbing(t *testing.T) {
	b, err := NewBudget(1.0, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	b.bind(failingChargeJournal{})
	rec := &persist.ChargeRecord{JobID: "job-1", DatasetID: "ds-1", Rho: 0.5}
	err = b.ChargeAdmission(0.5, 0.5, rec)
	if !errors.Is(err, ErrPersist) {
		t.Fatalf("charge with failing journal = %v, want ErrPersist", err)
	}
	if errors.Is(err, ErrBudgetExceeded) {
		t.Fatal("persist failure must not read as a budget refusal")
	}
	if st := b.Snapshot(); st.SpentRho != 0 || st.Releases != 0 {
		t.Fatalf("failed journal charge mutated the ledger: %+v", st)
	}
	// The ceiling check still runs first: an over-ceiling charge is a
	// 403-shaped refusal even while the journal is down.
	if err := b.ChargeAdmission(2.0, 2.0, rec); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("over-ceiling charge = %v, want ErrBudgetExceeded", err)
	}
	// An invalid ρ is refused before the journal is touched, so no
	// record of a charge that was never applied can reach it.
	for _, bad := range []float64{math.NaN(), -0.5} {
		if err := b.ChargeAdmission(0.1, bad, rec); err == nil || errors.Is(err, ErrPersist) {
			t.Fatalf("charge of ρ=%v = %v, want a refusal before the journal", bad, err)
		}
	}
	// Without a record (volatile callers) the journal is not
	// consulted.
	if err := b.ChargeAdmission(0.5, 0.5, nil); err != nil {
		t.Fatalf("record-less charge = %v", err)
	}
	if st := b.Snapshot(); st.SpentRho != 0.5 || st.Releases != 1 {
		t.Fatalf("ledger after record-less charge: %+v", st)
	}
}

// TestRestartReplaysCountWindowJournal: a state dir written while the
// daemon still ran count-quantile window jobs ("windows": N, charged
// N × ρ on the scalar axis at admission) replays after that job kind
// was removed — from the journal, and after Shutdown compacts it, from
// the snapshot. The spend stays, the jobs stay done, and a whole-trace
// request with the same config is never served, or resurrected as,
// the count release.
func TestRestartReplaysCountWindowJournal(t *testing.T) {
	dir := t.TempDir()
	rho, err := netdpsyn.RhoFromEpsDelta(1.0, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	s0, err := NewServer(Options{StateDir: dir, MaxConcurrentJobs: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts0 := httptest.NewServer(s0.Handler())
	dsID := registerFlow(t, ts0, 200, fmt.Sprintf("budget_rho=%g&budget_delta=1e-5", 20*rho))
	ts0.Close()
	shutdownServer(t, s0)

	// Two done count jobs as such a daemon journaled them, each with
	// the config Submit normalizes an {epsilon 1, delta 1e-5,
	// iterations 3, seed} request to, and no result file. The charges
	// go in as the raw journal lines that daemon wrote, "windows":3
	// included, numbered after the journal's last record.
	seeds := []uint64{5, 6}
	countJobs := []string{"job-1", "job-2"}
	store, st, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	jf, err := os.OpenFile(filepath.Join(dir, "journal.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		cfg := netdpsyn.Config{Epsilon: 1, Delta: 1e-5, UpdateIterations: 3, Seed: seed,
			Tau: core.DefaultConfig().Tau, KeyAttr: datagen.LabelField(datagen.TON)}
		line, err := json.Marshal(map[string]any{
			"seq": st.Seq + uint64(i) + 1,
			"t":   "charge",
			"ch": struct {
				persist.ChargeRecord
				Windows int `json:"windows"`
			}{persist.ChargeRecord{JobID: countJobs[i], DatasetID: dsID, Rho: 3 * rho, Config: cfg, Submitted: time.Now()}, 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := jf.Write(append(line, '\n')); err != nil {
			t.Fatal(err)
		}
	}
	if err := jf.Close(); err != nil {
		t.Fatal(err)
	}
	if store, _, err = persist.Open(dir); err != nil {
		t.Fatal(err)
	}
	for _, id := range countJobs {
		if err := store.AppendTerminal(persist.TerminalRecord{JobID: id, State: string(JobDone), Records: 200}); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	spent := 6 * rho
	for boot, seed := range seeds {
		s, err := NewServer(Options{StateDir: dir, MaxConcurrentJobs: 1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		checkSpent := func(when string) {
			t.Helper()
			var st Status
			resp, err := ts.Client().Get(ts.URL + "/datasets/" + dsID + "/budget")
			if err != nil {
				t.Fatal(err)
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(st.SpentRho-spent) > 1e-12 {
				t.Fatalf("boot %d, %s: spent ρ = %v, want %v", boot, when, st.SpentRho, spent)
			}
		}
		checkCountJobs := func(when string) {
			t.Helper()
			for _, id := range countJobs {
				var info JobInfo
				resp, err := ts.Client().Get(ts.URL + "/jobs/" + id)
				if err != nil {
					t.Fatal(err)
				}
				err = json.NewDecoder(resp.Body).Decode(&info)
				resp.Body.Close()
				if err != nil || info.State != JobDone {
					t.Fatalf("boot %d, %s: count job %s = %q (%v), want done", boot, when, id, info.State, err)
				}
				resp, err = ts.Client().Get(ts.URL + "/jobs/" + id + "/result.csv")
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusGone {
					t.Fatalf("boot %d, %s: count job %s result.csv = %d, want 410", boot, when, id, resp.StatusCode)
				}
			}
		}
		checkSpent("at boot")
		checkCountJobs("at boot")

		// A "windows" body is an unknown field: 400 before any charge.
		resp, err := ts.Client().Post(ts.URL+"/datasets/"+dsID+"/synthesize", "application/json",
			strings.NewReader(fmt.Sprintf(`{"epsilon":1,"delta":1e-5,"iterations":3,"seed":%d,"windows":3}`, seed)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("boot %d: windows request = %d, want 400", boot, resp.StatusCode)
		}
		checkSpent("after the windows request")

		// The same config as a whole-trace request is a fresh admission
		// at ρ, never the count job.
		ack, code := submit(t, ts, dsID, SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Seed: seed})
		if code != http.StatusAccepted || ack.Cached || ack.JobID == countJobs[0] || ack.JobID == countJobs[1] || math.Abs(ack.Rho-rho) > 1e-12 {
			t.Fatalf("boot %d: whole-trace submit = %d %+v, want a fresh admission at ρ %v", boot, code, ack, rho)
		}
		spent += rho
		checkSpent("after the whole-trace admission")
		if j, err := s.WaitJob(ack.JobID, 60*time.Second); err != nil || j.State() != JobDone {
			t.Fatalf("boot %d: whole-trace job: %v", boot, err)
		}
		checkCountJobs("after the whole-trace job")
		ts.Close()
		shutdownServer(t, s)
	}
}

// TestRestartReplaysLegacySpanJournal: a state dir written while span
// admissions still charged ρ on the scalar axis (a done span job
// whose admission carries ρ and which has no window charges) replays
// — from the journal, and after Shutdown compacts it, from the
// snapshot. The spend stays, the jobs stay done with no result, and
// an identical span request is a fresh admission whose windows charge
// their keys: never a zero-cost re-run on top of the scalar spend.
func TestRestartReplaysLegacySpanJournal(t *testing.T) {
	dir := t.TempDir()
	rho, err := netdpsyn.RhoFromEpsDelta(1.0, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	s0, err := NewServer(Options{StateDir: dir, MaxConcurrentJobs: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts0 := httptest.NewServer(s0.Handler())
	dsID := registerFlow(t, ts0, 200, fmt.Sprintf("budget_rho=%g&budget_delta=1e-5", 20*rho))
	d0, _ := s0.reg.Get(dsID)
	tsCol := d0.Table().Column(d0.Schema().Index(netdpsyn.FieldTS))
	lo, hi := tsCol[0], tsCol[0]
	for _, v := range tsCol {
		lo, hi = min(lo, v), max(hi, v)
	}
	span := (hi-lo)/3 + 1
	ts0.Close()
	shutdownServer(t, s0)

	// Two done span jobs as such a daemon journaled them: admission ρ
	// on the scalar axis, no window charges, no result file.
	seeds := []uint64{5, 6}
	legacyJobs := []string{"job-1", "job-2"}
	store, _, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		cfg := netdpsyn.Config{Epsilon: 1, Delta: 1e-5, UpdateIterations: 3, Seed: seed,
			Tau: core.DefaultConfig().Tau, KeyAttr: datagen.LabelField(datagen.TON)}
		if err := store.AppendCharge(persist.ChargeRecord{JobID: legacyJobs[i], DatasetID: dsID,
			Rho: rho, Config: cfg, Submitted: time.Now(), Span: span}); err != nil {
			t.Fatal(err)
		}
		if err := store.AppendTerminal(persist.TerminalRecord{JobID: legacyJobs[i], State: string(JobDone), Records: 200}); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	scalar := 2 * rho
	for boot, seed := range seeds {
		s, err := NewServer(Options{StateDir: dir, MaxConcurrentJobs: 1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		budget := func(when string, wantSpent float64) Status {
			t.Helper()
			var st Status
			resp, err := ts.Client().Get(ts.URL + "/datasets/" + dsID + "/budget")
			if err != nil {
				t.Fatal(err)
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(st.SpentRho-wantSpent) > 1e-12 {
				t.Fatalf("boot %d, %s: spent ρ = %v, want %v", boot, when, st.SpentRho, wantSpent)
			}
			return st
		}
		checkLegacyJobs := func(when string) {
			t.Helper()
			for _, id := range legacyJobs {
				var info JobInfo
				resp, err := ts.Client().Get(ts.URL + "/jobs/" + id)
				if err != nil {
					t.Fatal(err)
				}
				err = json.NewDecoder(resp.Body).Decode(&info)
				resp.Body.Close()
				if err != nil || info.State != JobDone {
					t.Fatalf("boot %d, %s: legacy span job %s = %q (%v), want done", boot, when, id, info.State, err)
				}
				resp, err = ts.Client().Get(ts.URL + "/jobs/" + id + "/result.csv")
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusGone {
					t.Fatalf("boot %d, %s: legacy span job %s result.csv = %d, want 410", boot, when, id, resp.StatusCode)
				}
			}
		}
		// The earlier boot's fresh span job left ρ on each of its keys.
		budget("at boot", scalar+float64(boot)*rho)
		checkLegacyJobs("at boot")

		ack, code := submit(t, ts, dsID, SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Seed: seed, WindowSpan: span})
		if code != http.StatusAccepted || ack.Cached || ack.JobID == legacyJobs[0] || ack.JobID == legacyJobs[1] {
			t.Fatalf("boot %d: span submit = %d %+v, want a fresh admission", boot, code, ack)
		}
		j, err := s.WaitJob(ack.JobID, 60*time.Second)
		if err != nil || j.State() != JobDone {
			t.Fatalf("boot %d: span job: %v", boot, err)
		}
		// Every released window charged its key once more: the span's
		// position (the max across its keys) rose by ρ.
		st := budget("after the span job", scalar+float64(boot+1)*rho)
		if n := len(j.Snapshot().Trace); len(st.WindowSpend) != n || n < 2 {
			t.Fatalf("boot %d: %d window keys for %d released windows, want one each (≥ 2)", boot, len(st.WindowSpend), n)
		}
		for _, ws := range st.WindowSpend {
			if ws.Span != span || math.Abs(ws.Rho-float64(boot+1)*rho) > 1e-12 {
				t.Fatalf("boot %d: window key %s = %v, want %v on span %d", boot, ws.Key, ws.Rho, float64(boot+1)*rho, span)
			}
		}
		checkLegacyJobs("after the span job")
		ts.Close()
		shutdownServer(t, s)
	}
}

// TestFlowLabelCollision: a flow label that repeats a field's name is
// refused at registration with a 400 naming the clash — a flow
// field's name once panicked the handler (the client saw EOF), and
// tsdiff once registered and then failed every release after its
// charge. A hand-edited journal holding a flow-field label is skipped
// at recovery with a warning, not a panic; a tsdiff-labelled dataset
// journaled before registration refused it still restores with its
// spend, and its plain releases get a 400 before any charge.
func TestFlowLabelCollision(t *testing.T) {
	dir := t.TempDir()
	raw, err := datagen.Generate(datagen.TON, datagen.Config{Rows: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := raw.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	// labelled is the trace with its label column renamed.
	labelled := func(label string) string {
		header, rest, _ := strings.Cut(buf.String(), "\n")
		return strings.Replace(header, datagen.LabelField(datagen.TON), label, 1) + "\n" + rest
	}

	s0, err := NewServer(Options{StateDir: dir, MaxConcurrentJobs: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts0 := httptest.NewServer(s0.Handler())
	for _, label := range []string{"tsdiff", "srcip", "ts", "proto"} {
		resp, err := ts0.Client().Post(ts0.URL+"/datasets?schema=flow&label="+label, "text/csv", strings.NewReader(labelled(label)))
		if err != nil {
			t.Fatalf("label %s: %v", label, err)
		}
		var e struct{ Error string }
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, `"`+label+`"`) || !strings.Contains(e.Error, "collides") {
			t.Fatalf("label %s: register = %d %q (%v), want a 400 naming the clash", label, resp.StatusCode, e.Error, err)
		}
	}
	if n := len(s0.reg.List()); n != 0 {
		t.Fatalf("refused registrations left %d dataset(s)", n)
	}
	ts0.Close()
	shutdownServer(t, s0)

	// What only a hand edit (srcip) or a daemon from before the check
	// (tsdiff) could have journaled, with one charged, failed release
	// against the tsdiff dataset.
	rho, err := netdpsyn.RhoFromEpsDelta(1.0, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	store, _, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, label := range []string{"srcip", "tsdiff"} {
		id := fmt.Sprintf("ds-%d", i+1)
		name, err := store.WriteSpool(id, []byte(labelled(label)))
		if err != nil {
			t.Fatal(err)
		}
		if err := store.AppendDataset(persist.DatasetRecord{ID: id, Kind: "flow", Label: label,
			CeilingRho: 1, Delta: 1e-5, Spool: name, Registered: time.Now()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.AppendCharge(persist.ChargeRecord{JobID: "job-1", DatasetID: "ds-2", Rho: rho,
		Config: netdpsyn.Config{Epsilon: 1, Delta: 1e-5, UpdateIterations: 3, Seed: 1}, Submitted: time.Now()}); err != nil {
		t.Fatal(err)
	}
	if err := store.AppendTerminal(persist.TerminalRecord{JobID: "job-1", State: string(JobFailed), Error: `duplicate field "tsdiff"`}); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := NewServer(Options{StateDir: dir, MaxConcurrentJobs: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer shutdownServer(t, s)
	if info := s.Recovery(); info.Datasets != 1 || len(info.Warnings) != 1 || !strings.Contains(info.Warnings[0], "ds-1") || !strings.Contains(info.Warnings[0], "collides") {
		t.Fatalf("recovery = %+v, want ds-1 skipped for its label and ds-2 restored", info)
	}
	if _, ok := s.reg.Get("ds-1"); ok {
		t.Fatal("the srcip-labelled dataset was restored")
	}
	d, ok := s.reg.Get("ds-2")
	if !ok {
		t.Fatal("the tsdiff-labelled dataset was not restored")
	}
	if got := d.Budget().Snapshot().SpentRho; math.Abs(got-rho) > 1e-12 {
		t.Fatalf("restored spend = %v, want the journaled %v", got, rho)
	}
	ack, code := submit(t, ts, "ds-2", SynthesisRequest{Epsilon: 1, Iterations: 3, Seed: 2})
	if code != http.StatusBadRequest {
		t.Fatalf("plain release of the tsdiff-labelled dataset = %d %+v, want 400", code, ack)
	}
	if got := d.Budget().Snapshot().SpentRho; math.Abs(got-rho) > 1e-12 {
		t.Fatalf("a refused release moved spend to %v (was %v)", got, rho)
	}

	// The packet schema has no label field: a label passed with it is
	// dropped, not stored.
	pkt, err := datagen.Generate(datagen.CAIDA, datagen.Config{Rows: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var pbuf bytes.Buffer
	if err := pkt.WriteCSV(&pbuf); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/datasets?schema=packet&label=x", "text/csv", &pbuf)
	if err != nil {
		t.Fatal(err)
	}
	var info Info
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated || info.Label != "" {
		t.Fatalf("packet register with a label = %d %+v (%v), want 201 with no label", resp.StatusCode, info, err)
	}
	if pd, ok := s.reg.Get(info.ID); !ok || pd.Info().Label != "" {
		t.Fatalf("registered packet dataset %s keeps a label", info.ID)
	}
}
