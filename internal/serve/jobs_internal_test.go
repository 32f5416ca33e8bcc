package serve

import (
	"bytes"
	"context"
	"io"
	"testing"
	"time"

	netdpsyn "github.com/netdpsyn/netdpsyn"
	"github.com/netdpsyn/netdpsyn/internal/datagen"
)

// TestResultRetentionEviction drives the bounded result window
// directly: with maxResults = 1, finishing a second job must evict
// the first job's synthesized table while keeping its metadata and
// cache entry (so no re-charge on an identical request).
func TestResultRetentionEviction(t *testing.T) {
	raw, err := datagen.Generate(datagen.TON, datagen.Config{Rows: 120, Seed: 3})
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
	q := NewQueue(reg, QueueOptions{Runners: 1, WorkersTotal: 1})
	q.maxResults = 1
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := q.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()

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
		select {
		case <-j.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("job %s did not finish", j.ID)
		}
		if j.State() != JobDone {
			t.Fatalf("job %s = %s (%s)", j.ID, j.State(), j.Snapshot().Error)
		}
	}
	if _, ok := j1.Result(); ok {
		t.Fatal("job 1's result should have been evicted (maxResults=1)")
	}
	if _, ok := j2.Result(); !ok {
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
	select {
	case <-j1.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("resurrected job did not finish")
	}
	if _, ok := j1.Result(); !ok {
		t.Fatalf("resurrected job should hold its result again (state %s)", j1.State())
	}
}

// TestJobMetadataSweep drives the maxJobs bound: once the metadata
// maps exceed it, the oldest resultless terminal jobs are forgotten —
// id 404s, cache entry gone (identical resubmit is a fresh charge) —
// while jobs still holding results survive.
func TestJobMetadataSweep(t *testing.T) {
	raw, err := datagen.Generate(datagen.TON, datagen.Config{Rows: 120, Seed: 3})
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
	q := NewQueue(reg, QueueOptions{Runners: 1, WorkersTotal: 1})
	q.maxResults = 1
	q.maxJobs = 2
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := q.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()

	cfg := netdpsyn.Config{Epsilon: 0.2, UpdateIterations: 3}
	var jobs []*Job
	for seed := uint64(1); seed <= 3; seed++ {
		c := cfg
		c.Seed = seed
		j, _, err := q.Submit(d, c, SubmitRequest{})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-j.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("job %s did not finish", j.ID)
		}
		jobs = append(jobs, j)
	}
	// Job 1's result was evicted (maxResults=1) and the third
	// admission pushed the maps past maxJobs=2, so job 1 is gone.
	if _, ok := q.Get(jobs[0].ID); ok {
		t.Fatalf("job %s should have been swept", jobs[0].ID)
	}
	if _, ok := q.Get(jobs[2].ID); !ok {
		t.Fatal("newest job must survive the sweep")
	}
	// Its cache entry went with it: an identical request is a fresh
	// admission with a fresh (conservative) charge.
	spent := d.Budget().Snapshot().SpentRho
	c := cfg
	c.Seed = 1
	again, cached, err := q.Submit(d, c, SubmitRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if cached || again == jobs[0] {
		t.Fatalf("swept job must not be served from cache (cached=%v)", cached)
	}
	if got := d.Budget().Snapshot().SpentRho; got <= spent {
		t.Fatalf("re-admission after sweep should charge: spent ρ %v → %v", spent, got)
	}
}

// TestWholeTraceSource pins the plain job's window source as the
// engine sees it: one window with ID 0 (the job's own Seed) holding
// the registered table itself, not a copy, then io.EOF. It must
// report its window count through the WindowSource, because the
// engine splits the job's workers by it — without it the one window
// would run on a single worker. An empty table is refused with
// Synthesize's error instead of releasing nothing.
func TestWholeTraceSource(t *testing.T) {
	raw, err := datagen.Generate(datagen.TON, datagen.Config{Rows: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var src netdpsyn.WindowSource = &wholeTrace{t: raw}
	wc, ok := src.(interface{ Windows() int })
	if !ok || wc.Windows() != 1 {
		t.Fatalf("plain source reports no window count of 1 (ok=%v)", ok)
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
