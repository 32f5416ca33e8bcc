package serve

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	netdpsyn "github.com/netdpsyn/netdpsyn"
	"github.com/netdpsyn/netdpsyn/internal/core"
	"github.com/netdpsyn/netdpsyn/internal/datagen"
)

// tonTable is an emulated TON flow trace as the daemon loads an upload
// of it.
func tonTable(t *testing.T, rows int, seed uint64) *netdpsyn.Table {
	t.Helper()
	raw, err := datagen.Generate(datagen.TON, datagen.Config{Rows: rows, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := raw.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	table, err := netdpsyn.LoadCSV(&buf, netdpsyn.FlowSchema(datagen.LabelField(datagen.TON)))
	if err != nil {
		t.Fatal(err)
	}
	return table
}

// tonDataset registers a 120-row emulated TON flow trace on a fresh
// registry with a ρ = 1 ceiling.
func tonDataset(t *testing.T) (*Registry, *Dataset) {
	t.Helper()
	table := tonTable(t, 120, 3)
	reg := NewRegistry(0, nil)
	budget, err := NewBudget(1.0, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	d, err := reg.Register(RegisterRequest{Name: "ton", Kind: "flow", Label: "type",
		Schema: table.Schema(), Table: table, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	return reg, d
}

// shutdownQueue drains q, failing the test if it does not drain.
func shutdownQueue(t *testing.T, q *Queue) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := q.Shutdown(ctx); err != nil {
		t.Error(err)
	}
}

// waitDone waits for j to reach a terminal state.
func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish", j.ID)
	}
}

// holdsResult reports whether j is done and its spool, the one copy of
// its release, is servable.
func holdsResult(j *Job) bool {
	rs := j.Spool()
	return j.State() == JobDone && rs != nil && rs.servable()
}

// TestResultRetentionEviction drives the bounded result window
// directly: with maxResults = 1, finishing a second job must evict
// the first job's result spool while keeping its metadata and cache
// entry (so no re-charge on an identical request).
func TestResultRetentionEviction(t *testing.T) {
	reg, d := tonDataset(t)
	q := NewQueue(reg, QueueOptions{Runners: 1, WorkersTotal: 1})
	q.maxResults = 1
	defer shutdownQueue(t, q)

	cfg := netdpsyn.Config{Epsilon: 0.5, UpdateIterations: 3, Seed: 1}
	j1, cached, err := q.Submit(d, cfg, SubmitRequest{})
	if err != nil || cached {
		t.Fatalf("submit 1: cached=%v err=%v", cached, err)
	}
	cfg2 := cfg
	cfg2.Seed = 2
	j2, _, err := q.Submit(d, cfg2, SubmitRequest{})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Job{j1, j2} {
		waitDone(t, j)
		if j.State() != JobDone {
			t.Fatalf("job %s = %s (%s)", j.ID, j.State(), j.Snapshot().Error)
		}
	}
	if holdsResult(j1) {
		t.Fatal("job 1's result should have been evicted (maxResults=1)")
	}
	if !holdsResult(j2) {
		t.Fatal("job 2's result should be retained")
	}
	// Evicted job keeps metadata and costs nothing to re-reference.
	if info := j1.Snapshot(); info.State != JobDone || info.Records <= 0 {
		t.Fatalf("evicted job metadata = %+v", info)
	}
	spent := d.Budget().Snapshot().SpentRho
	// An identical request resurrects the evicted job: same job, no
	// new charge, and the deterministic result is regenerated.
	again, cached, err := q.Submit(d, cfg, SubmitRequest{})
	if err != nil || !cached || again != j1 {
		t.Fatalf("identical request after eviction: job=%v cached=%v err=%v", again, cached, err)
	}
	if got := d.Budget().Snapshot().SpentRho; got != spent {
		t.Fatalf("eviction re-charge: spent ρ %v → %v", spent, got)
	}
	waitDone(t, j1)
	if !holdsResult(j1) {
		t.Fatalf("resurrected job should hold its result again (state %s)", j1.State())
	}
}

// TestResultRetentionLostFile: a done job whose results/ file was
// deleted behind the daemon's back is re-run by an identical resubmit
// at zero charge, and then counts once against maxResults: with room
// for two results, it and the next job both keep theirs.
func TestResultRetentionLostFile(t *testing.T) {
	s, err := NewServer(Options{StateDir: t.TempDir(), MaxConcurrentJobs: 1, Workers: 1, MaxResults: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer shutdownServer(t, s)
	dsID := registerFlow(t, ts, 200, "budget_rho=1")
	run := func(seed uint64, wantCached bool) *Job {
		t.Helper()
		ack, code := submit(t, ts, dsID, SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Seed: seed})
		if code != http.StatusAccepted || ack.Cached != wantCached {
			t.Fatalf("seed %d: submit = %d %+v, want cached=%v", seed, code, ack, wantCached)
		}
		j, err := s.WaitJob(ack.JobID, 60*time.Second)
		if err != nil || j.State() != JobDone {
			t.Fatalf("seed %d: job not done (%v)", seed, err)
		}
		return j
	}
	a := run(1, false)
	if err := os.Remove(s.store.ResultPath(a.ID)); err != nil {
		t.Fatal(err)
	}
	if again := run(1, true); again != a {
		t.Fatalf("resubmit = %s, want %s", again.ID, a.ID)
	}
	b := run(2, false)
	for _, j := range []*Job{a, b} {
		if !holdsResult(j) {
			t.Fatalf("job %s lost its result with room for two retained", j.ID)
		}
	}
	d, _ := s.queue.reg.Get(dsID)
	if got := d.Budget().Snapshot().SpentRho; math.Abs(got-2*a.Rho) > 1e-12 {
		t.Fatalf("spent ρ = %v, want two releases' %v: the re-run must be free", got, 2*a.Rho)
	}
}

// TestJobMetadataSweep drives the maxJobs bound, for plain and span
// jobs alike: once the metadata maps exceed it, the oldest resultless
// terminal jobs are forgotten — id 404s, cache entry gone (identical
// resubmit is a fresh charge) — while jobs still holding their result
// spool survive, however many there are.
func TestJobMetadataSweep(t *testing.T) {
	for _, tc := range []struct {
		name       string
		span       int64 // one bucket: every TON timestamp is below it
		maxResults int
	}{
		{"plain/evicted", 0, 1},
		{"span/evicted", 1 << 40, 1},
		{"plain/retained", 0, 256},
		{"span/retained", 1 << 40, 256},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg, d := tonDataset(t)
			q := NewQueue(reg, QueueOptions{Runners: 1, WorkersTotal: 1, MaxResults: tc.maxResults})
			q.maxJobs = 2
			defer shutdownQueue(t, q)

			cfg := netdpsyn.Config{Epsilon: 0.2, UpdateIterations: 3}
			sr := SubmitRequest{Span: tc.span}
			var jobs []*Job
			for seed := uint64(1); seed <= 3; seed++ {
				c := cfg
				c.Seed = seed
				j, _, err := q.Submit(d, c, sr)
				if err != nil {
					t.Fatal(err)
				}
				waitDone(t, j)
				if j.State() != JobDone {
					t.Fatalf("job %s = %s (%s)", j.ID, j.State(), j.Snapshot().Error)
				}
				jobs = append(jobs, j)
			}
			if tc.maxResults > 1 {
				// Every result is retained, so nothing may be forgotten
				// although the maps hold more than maxJobs.
				for _, j := range jobs {
					if got, ok := q.Get(j.ID); !ok || got != j || !holdsResult(j) {
						t.Fatalf("job %s: known=%v holds result=%v; retained results must survive the sweep", j.ID, ok, holdsResult(j))
					}
				}
				return
			}
			// Job 1's result was evicted (maxResults=1) and the third
			// admission pushed the maps past maxJobs=2, so job 1 is gone.
			if _, ok := q.Get(jobs[0].ID); ok {
				t.Fatalf("job %s should have been swept", jobs[0].ID)
			}
			if _, ok := q.Get(jobs[2].ID); !ok || !holdsResult(jobs[2]) {
				t.Fatal("newest job must survive the sweep with its result")
			}
			// Its cache entry went with it: an identical request is a
			// fresh admission with a fresh (conservative) charge — at
			// admission for a plain job, as its window runs for a span
			// job.
			spent := d.Budget().Snapshot().SpentRho
			c := cfg
			c.Seed = 1
			again, cached, err := q.Submit(d, c, sr)
			if err != nil {
				t.Fatal(err)
			}
			if cached || again == jobs[0] {
				t.Fatalf("swept job must not be served from cache (cached=%v)", cached)
			}
			waitDone(t, again)
			if got := d.Budget().Snapshot().SpentRho; got <= spent {
				t.Fatalf("re-admission after sweep should charge: spent ρ %v → %v", spent, got)
			}
		})
	}
}

// TestResultSpoolSealFailure: a journaled done terminal vouches for a
// result file after a crash, so a file spool whose final fsync or
// close fails must not leave one behind: finish returns the error,
// deletes the file, and the spool is no longer servable.
func TestResultSpoolSealFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job-1.csv")
	rs, err := newResultSpool(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Write([]byte("a,b\n1,2\n")); err != nil {
		t.Fatal(err)
	}
	// Close the descriptor under the spool: its Sync and Close now fail.
	if err := rs.f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rs.finish(""); err == nil {
		t.Fatal("finish reported no error for a spool it could not sync")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("unsealed result file left behind: stat = %v", err)
	}
	if rs.servable() {
		t.Fatal("a spool that failed to seal must not be servable")
	}
}

// TestWholeTraceSource pins the plain job's window source as the
// engine sees it: one window with ID 0 (the job's own Seed) holding
// the registered table itself, not a copy, then io.EOF. It must
// report its window count through the WindowSource, because the
// engine splits the job's workers by it — without it the one window
// would run on a single worker — and the dataset's prepared form,
// built once, through core.PreparedSource, or the release would
// prepare the table again. An empty table is refused with
// Synthesize's error instead of releasing nothing.
func TestWholeTraceSource(t *testing.T) {
	raw, err := datagen.Generate(datagen.TON, datagen.Config{Rows: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	d := &Dataset{ID: "ds-1", table: raw}
	prep, err := d.Prepared()
	if err != nil {
		t.Fatal(err)
	}
	if again, err := d.Prepared(); again != prep || err != nil {
		t.Fatalf("second Prepared = (%p, %v), want the first build %p", again, err, prep)
	}
	var src netdpsyn.WindowSource = &wholeTrace{t: raw, prep: prep}
	wc, ok := src.(interface{ Windows() int })
	if !ok || wc.Windows() != 1 {
		t.Fatalf("plain source reports no window count of 1 (ok=%v)", ok)
	}
	ps, ok := src.(core.PreparedSource)
	if !ok || ps.Prepared() != prep {
		t.Fatalf("plain source does not report the dataset's prepared form (ok=%v)", ok)
	}
	w, err := src.Next()
	if err != nil || w.ID != 0 || w.Table != raw {
		t.Fatalf("first window = (ID %d, same table %v, %v), want the registered table as window 0", w.ID, w.Table == raw, err)
	}
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("second Next = %v, want io.EOF", err)
	}
	empty := netdpsyn.NewTable(raw.Schema(), 0)
	if _, err := (&wholeTrace{t: empty}).Next(); err == nil || err.Error() != "netdpsyn: empty input table" {
		t.Fatalf("empty table = %v, want Synthesize's empty-table error", err)
	}
}
