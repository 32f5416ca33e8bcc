package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	netdpsyn "github.com/netdpsyn/netdpsyn"
)

func mustOpen(t *testing.T, dir string) (*Store, *State) {
	t.Helper()
	s, st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s, st
}

func appendDataset(t *testing.T, s *Store, id string) {
	t.Helper()
	if err := s.AppendDataset(DatasetRecord{
		ID: id, Kind: "flow", Label: "type",
		CeilingRho: 1.0, Delta: 1e-5, Spool: id + ".csv",
		Registered: time.Unix(1700000000, 0).UTC(),
	}); err != nil {
		t.Fatal(err)
	}
}

func appendCharge(t *testing.T, s *Store, dsID, jobID string, rho float64) {
	t.Helper()
	if err := s.AppendCharge(ChargeRecord{
		JobID: jobID, DatasetID: dsID, Rho: rho,
		Config:    netdpsyn.Config{Epsilon: 1, Delta: 1e-5, Seed: 7},
		Submitted: time.Unix(1700000001, 0).UTC(),
	}); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyStateDir locks in the zero→durable path: a fresh dir opens
// to empty state, and records appended before an abrupt close replay
// on the next open.
func TestEmptyStateDir(t *testing.T) {
	dir := t.TempDir()
	s, st := mustOpen(t, dir)
	if st.Seq != 0 || len(st.Datasets) != 0 || len(st.Jobs) != 0 || st.SkippedRecords != 0 || st.TruncatedBytes != 0 {
		t.Fatalf("fresh dir state = %+v", st)
	}

	appendDataset(t, s, "ds-1")
	appendCharge(t, s, "ds-1", "job-1", 0.25)
	appendCharge(t, s, "ds-1", "job-2", 0.25)
	if err := s.AppendTerminal(TerminalRecord{JobID: "job-1", State: "done", Records: 42}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // abrupt: no Compact
		t.Fatal(err)
	}

	_, st = mustOpen(t, dir)
	if st.Seq != 4 {
		t.Fatalf("replayed seq = %d, want 4", st.Seq)
	}
	if len(st.Datasets) != 1 || st.Datasets[0].SpentRho != 0.5 || st.Datasets[0].Releases != 2 {
		t.Fatalf("replayed datasets = %+v", st.Datasets)
	}
	if len(st.Jobs) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(st.Jobs))
	}
	if st.Jobs[0].State != "done" || st.Jobs[0].Records != 42 {
		t.Fatalf("job-1 replayed as %+v", st.Jobs[0])
	}
	// job-2 has a charge but no terminal: the interrupted shape.
	if st.Jobs[1].State != "" || st.Jobs[1].Rho != 0.25 {
		t.Fatalf("job-2 replayed as %+v, want interrupted with its charge", st.Jobs[1])
	}
	// The replayed config round-trips exactly (float64 JSON round-trip
	// is exact with Go's encoder).
	if st.Jobs[1].Config.Epsilon != 1 || st.Jobs[1].Config.Seed != 7 {
		t.Fatalf("job-2 config = %+v", st.Jobs[1].Config)
	}
}

// TestTornTailTruncated simulates the record being written at the
// moment of a crash: a half-written line is dropped at open, the
// records before it survive, and appends after reopen land cleanly.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	appendDataset(t, s, "ds-1")
	appendCharge(t, s, "ds-1", "job-1", 0.25)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: a partial record with no trailing newline.
	jp := filepath.Join(dir, journalName)
	f, err := os.OpenFile(jp, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":3,"t":"charge","ch":{"job_id":"jo`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s, st := mustOpen(t, dir)
	if st.TruncatedBytes == 0 {
		t.Fatal("torn tail not reported")
	}
	if st.Seq != 2 || len(st.Jobs) != 1 || st.Datasets[0].SpentRho != 0.25 {
		t.Fatalf("state after torn tail = %+v", st)
	}
	// The journal was physically truncated, so the next append cannot
	// collide with the garbage.
	appendCharge(t, s, "ds-1", "job-2", 0.25)
	s.Close()
	_, st = mustOpen(t, dir)
	if st.Seq != 3 || len(st.Jobs) != 2 || st.Datasets[0].SpentRho != 0.5 {
		t.Fatalf("state after post-tear append = %+v", st)
	}
}

// TestTornMiddleStopsReplay: a corrupt line that still ends in a
// newline (torn write that happened to pick up a delimiter) stops
// replay there — everything after is suspect and dropped, which can
// only under-restore job metadata, never under-restore spend that
// reached the admitted state durably.
func TestTornMiddleStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	appendDataset(t, s, "ds-1")
	appendCharge(t, s, "ds-1", "job-1", 0.25)
	s.Close()

	jp := filepath.Join(dir, journalName)
	f, err := os.OpenFile(jp, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(f, `not json at all`)
	fmt.Fprintln(f, `{"seq":4,"t":"charge","ch":{"job_id":"job-9","dataset_id":"ds-1","rho":0.5}}`)
	f.Close()

	_, st := mustOpen(t, dir)
	if st.Seq != 2 || len(st.Jobs) != 1 {
		t.Fatalf("replay past corruption: %+v", st)
	}
	if st.TruncatedBytes == 0 {
		t.Fatal("corrupt middle not reported as truncation")
	}
}

// TestSnapshotJournalOverlapNoDoubleApply reconstructs a compaction
// that crashed between the snapshot rename and the journal
// truncation: the journal still holds records the snapshot already
// folded in. Replay must apply each charge exactly once.
func TestSnapshotJournalOverlapNoDoubleApply(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	appendDataset(t, s, "ds-1")
	appendCharge(t, s, "ds-1", "job-1", 0.25)
	appendCharge(t, s, "ds-1", "job-2", 0.25)

	// Save the pre-compaction journal bytes, compact (snapshot seq=3,
	// journal truncated), then put the old bytes back — exactly the
	// on-disk state of a crash before the truncate.
	jp := filepath.Join(dir, journalName)
	saved, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) == 0 {
		t.Fatal("journal empty before compaction")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.WriteFile(jp, saved, 0o600); err != nil {
		t.Fatal(err)
	}

	_, st := mustOpen(t, dir)
	if st.Seq != 3 {
		t.Fatalf("seq = %d, want 3", st.Seq)
	}
	if got := st.Datasets[0].SpentRho; got != 0.5 {
		t.Fatalf("spent ρ = %v, want 0.5 (overlap double-applied)", got)
	}
	if st.Datasets[0].Releases != 2 || len(st.Jobs) != 2 {
		t.Fatalf("overlap state = %+v", st)
	}
}

// TestCompactionRoundTrip: snapshot + truncated journal replay to the
// same state as the raw journal, and appends continue seamlessly on
// top of a snapshot.
func TestCompactionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	appendDataset(t, s, "ds-1")
	appendCharge(t, s, "ds-1", "job-1", 0.3)
	if err := s.AppendTerminal(TerminalRecord{JobID: "job-1", State: "failed", Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, journalName)); err != nil || fi.Size() != 0 {
		t.Fatalf("journal after compact: %v size=%d", err, fi.Size())
	}
	// Post-snapshot appends land in the (now empty) journal.
	appendCharge(t, s, "ds-1", "job-2", 0.3)
	s.Close()

	_, st := mustOpen(t, dir)
	if st.Seq != 4 || st.Datasets[0].SpentRho != 0.6 || len(st.Jobs) != 2 {
		t.Fatalf("snapshot+journal state = %+v", st)
	}
	if st.Jobs[0].State != "failed" || st.Jobs[0].Error != "boom" {
		t.Fatalf("job-1 = %+v", st.Jobs[0])
	}
}

// TestAutoCompaction: the store compacts itself every compactEvery
// appends without the caller doing anything.
func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	s.mu.Lock()
	s.compactEvery = 3
	s.mu.Unlock()
	appendDataset(t, s, "ds-1")
	for i := 1; i <= 5; i++ {
		appendCharge(t, s, "ds-1", fmt.Sprintf("job-%d", i), 0.1)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("auto-compaction never wrote a snapshot: %v", err)
	}
	s.Close()
	_, st := mustOpen(t, dir)
	if st.Seq != 6 || st.Datasets[0].Releases != 5 {
		t.Fatalf("state after auto-compaction = %+v", st)
	}
}

// TestUnknownRecordTypeSkipped: a record journaled by a future daemon
// version replays as a counted skip, and the records around it still
// apply — forward compatibility, not corruption. The charge after it
// was journaled by an older daemon whose Config carried a field since
// removed; it replays with the fields that remain.
func TestUnknownRecordTypeSkipped(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	appendDataset(t, s, "ds-1")
	appendCharge(t, s, "ds-1", "job-1", 0.25)
	s.Close()

	foreign, err := os.ReadFile(filepath.Join("testdata", "foreign_records.journal"))
	if err != nil {
		t.Fatal(err)
	}
	jp := filepath.Join(dir, journalName)
	f, err := os.OpenFile(jp, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(foreign); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s, st := mustOpen(t, dir)
	if st.SkippedRecords != 1 {
		t.Fatalf("skipped = %d, want 1", st.SkippedRecords)
	}
	if st.Seq != 4 || len(st.Jobs) != 2 || st.Datasets[0].SpentRho != 0.5 {
		t.Fatalf("state around unknown record = %+v", st)
	}
	want := netdpsyn.Config{Epsilon: 1, Delta: 1e-5, UpdateIterations: 3, Seed: 11, Workers: 1}
	if got := st.Jobs[1].Config; st.Jobs[1].JobID != "job-2" || got != want {
		t.Fatalf("older-version charge replayed as %s %+v, want job-2 %+v", st.Jobs[1].JobID, got, want)
	}
	// Appends continue past the foreign record's seq.
	appendCharge(t, s, "ds-1", "job-3", 0.1)
	s.Close()
	_, st = mustOpen(t, dir)
	if st.Seq != 5 || len(st.Jobs) != 3 {
		t.Fatalf("state after post-skip append = %+v", st)
	}
}

// TestChargeAgainstUnknownDatasetSkipped: conservative attribution —
// a charge that names a dataset replay has never seen is counted as
// skipped and credited to no ledger, but its job entry (and so its
// id) survives, keeping the duplicate-admission guard honest.
func TestChargeAgainstUnknownDatasetSkipped(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	appendDataset(t, s, "ds-1")
	appendCharge(t, s, "ds-9", "job-1", 0.25) // no such dataset
	s.Close()
	_, st := mustOpen(t, dir)
	if st.SkippedRecords != 1 || st.Datasets[0].SpentRho != 0 {
		t.Fatalf("unknown-dataset charge state = %+v", st)
	}
	if len(st.Jobs) != 1 || st.Jobs[0].JobID != "job-1" {
		t.Fatalf("unattributable charge must still occupy its job id: %+v", st.Jobs)
	}
}

// failingSink fails every write, for fault injection.
type failingSink struct{}

func (failingSink) Write([]byte) (int, error) { return 0, errors.New("disk on fire") }
func (failingSink) Sync() error               { return errors.New("disk on fire") }

// TestFailingSinkLeavesJournalConsistent: appends against a failing
// sink error out, the state machine does not advance, and once the
// sink recovers the journal is byte-consistent (replays cleanly with
// only the successful records).
func TestFailingSinkLeavesJournalConsistent(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	appendDataset(t, s, "ds-1")
	appendCharge(t, s, "ds-1", "job-1", 0.25)

	s.SetSink(failingSink{})
	if err := s.AppendCharge(ChargeRecord{JobID: "job-2", DatasetID: "ds-1", Rho: 0.25}); err == nil {
		t.Fatal("append against failing sink must error")
	}
	// Sequence numbers are not consumed by failed appends.
	s.SetSink(nil)
	appendCharge(t, s, "ds-1", "job-3", 0.25)
	s.Close()

	_, st := mustOpen(t, dir)
	if st.Seq != 3 || len(st.Jobs) != 2 {
		t.Fatalf("state after failed append = %+v", st)
	}
	if st.Datasets[0].SpentRho != 0.5 {
		t.Fatalf("spent ρ = %v, want 0.5 (failed append must not charge)", st.Datasets[0].SpentRho)
	}
	for _, j := range st.Jobs {
		if j.JobID == "job-2" {
			t.Fatal("failed append replayed into existence")
		}
	}
}

// TestClosedStoreRefusesAppends: after Close every append returns
// ErrClosed (the service maps it to 503).
func TestClosedStoreRefusesAppends(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	s.Close()
	if err := s.AppendDataset(DatasetRecord{ID: "ds-1"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
	if err := s.Compact(); !errors.Is(err, ErrClosed) {
		t.Fatalf("compact after close = %v, want ErrClosed", err)
	}
}

// TestSpoolRoundTrip: spooled bytes come back verbatim, and spool
// names cannot escape the spool dir.
func TestSpoolRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	defer s.Close()
	raw := []byte("srcip,dstip\n1.2.3.4,5.6.7.8\n")
	name, err := s.WriteSpool("ds-1", raw)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(s.SpoolPath(name))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(raw) {
		t.Fatalf("spool round-trip: %q", got)
	}
	if p := s.SpoolPath("../../etc/passwd"); !strings.HasPrefix(p, filepath.Join(dir, spoolDirName)) {
		t.Fatalf("spool path escaped the spool dir: %s", p)
	}
}

// TestSnapshotVersionGate: a snapshot from a newer daemon refuses to
// open rather than silently replaying fields it cannot understand.
func TestSnapshotVersionGate(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	s.Close()
	if err := os.WriteFile(filepath.Join(dir, snapshotName),
		[]byte(`{"version":99,"seq":10,"datasets":[],"jobs":[]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future snapshot opened: %v", err)
	}
}

// TestWindowFeedRecordsReplay covers the continuous-ingest journal
// records: window arrivals accumulate per epoch, a feed close seals
// the epoch, a later epoch's first window supersedes the previous
// epoch's windows entirely, per-window-key charges land both on the
// dataset ledger map and the job's charged-bucket list, and all of it
// survives a compaction + reopen.
func TestWindowFeedRecordsReplay(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	appendDataset(t, s, "ds-1")
	appendCharge(t, s, "ds-1", "job-1", 0) // a follow admission: scalar 0
	win := func(epoch int, bucket int64, rows int) {
		t.Helper()
		if err := s.AppendWindow(WindowRecord{
			DatasetID: "ds-1", Epoch: epoch, Bucket: bucket, Rows: rows,
			Spool:    WindowSpoolName("ds-1", epoch, bucket),
			Received: time.Unix(1700000002, 0).UTC(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	wcharge := func(jobID string, bucket int64, rho float64) {
		t.Helper()
		if err := s.AppendWindowCharge(WindowChargeRecord{
			JobID: jobID, DatasetID: "ds-1", Span: 100, Bucket: bucket, Rho: rho,
		}); err != nil {
			t.Fatal(err)
		}
	}
	win(1, 5, 10)
	win(1, 6, 20)
	wcharge("job-1", 5, 0.25)
	wcharge("job-1", 6, 0.25)
	// A duplicate seal in the same epoch is skipped, first wins.
	win(1, 5, 99)
	if err := s.AppendFeedClose(FeedRecord{DatasetID: "ds-1", Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	_, st := mustOpen(t, dir)
	if len(st.Datasets) != 1 {
		t.Fatalf("datasets = %d", len(st.Datasets))
	}
	ds := st.Datasets[0]
	if ds.FeedEpoch != 1 || !ds.FeedClosed {
		t.Fatalf("feed state = epoch %d closed %v", ds.FeedEpoch, ds.FeedClosed)
	}
	if len(ds.Windows) != 2 || ds.Windows[0].Bucket != 5 || ds.Windows[0].Rows != 10 || ds.Windows[1].Bucket != 6 {
		t.Fatalf("windows = %+v", ds.Windows)
	}
	if ds.SpentRho != 0 {
		t.Fatalf("scalar spend = %v, want 0 (follow admissions are free)", ds.SpentRho)
	}
	if ds.WindowRho[WindowKey(100, 5)] != 0.25 || ds.WindowRho[WindowKey(100, 6)] != 0.25 {
		t.Fatalf("window rho = %v", ds.WindowRho)
	}
	if len(st.Jobs) != 1 || len(st.Jobs[0].ChargedBuckets) != 2 {
		t.Fatalf("jobs = %+v", st.Jobs)
	}
	if st.SkippedRecords != 1 {
		t.Fatalf("skipped = %d, want 1 (the duplicate seal)", st.SkippedRecords)
	}

	// Epoch 2 supersedes epoch 1's windows but NOT the ledger: a
	// re-charge of bucket 5 accumulates on its key.
	s2, _ := mustOpen(t, dir)
	if err := s2.AppendWindow(WindowRecord{
		DatasetID: "ds-1", Epoch: 2, Bucket: 5, Rows: 7,
		Spool: WindowSpoolName("ds-1", 2, 5), Received: time.Unix(1700000003, 0).UTC(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := s2.AppendCharge(ChargeRecord{JobID: "job-2", DatasetID: "ds-1", Rho: 0, Follow: true, Epoch: 2,
		Config: netdpsyn.Config{Epsilon: 1, Delta: 1e-5, Seed: 8}, Submitted: time.Unix(1700000004, 0).UTC()}); err != nil {
		t.Fatal(err)
	}
	if err := s2.AppendWindowCharge(WindowChargeRecord{JobID: "job-2", DatasetID: "ds-1", Span: 100, Bucket: 5, Rho: 0.25}); err != nil {
		t.Fatal(err)
	}
	// A stale epoch-1 window arriving now is skipped, not resurrected.
	if err := s2.AppendWindow(WindowRecord{
		DatasetID: "ds-1", Epoch: 1, Bucket: 9, Rows: 1,
		Spool: WindowSpoolName("ds-1", 1, 9), Received: time.Unix(1700000005, 0).UTC(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	_, st3 := mustOpen(t, dir)
	ds3 := st3.Datasets[0]
	if ds3.FeedEpoch != 2 || ds3.FeedClosed {
		t.Fatalf("epoch-2 feed state = epoch %d closed %v", ds3.FeedEpoch, ds3.FeedClosed)
	}
	if len(ds3.Windows) != 1 || ds3.Windows[0].Bucket != 5 || ds3.Windows[0].Epoch != 2 {
		t.Fatalf("epoch-2 windows = %+v", ds3.Windows)
	}
	if got := ds3.WindowRho[WindowKey(100, 5)]; got != 0.5 {
		t.Fatalf("re-charged key = %v, want 0.5 (sequential on the key)", got)
	}
	if got := ds3.WindowRho[WindowKey(100, 6)]; got != 0.25 {
		t.Fatalf("untouched key = %v, want 0.25", got)
	}
	var job2 *JobState
	for i := range st3.Jobs {
		if st3.Jobs[i].JobID == "job-2" {
			job2 = &st3.Jobs[i]
		}
	}
	if job2 == nil || !job2.Follow || job2.Epoch != 2 || len(job2.ChargedBuckets) != 1 || job2.ChargedBuckets[0] != 5 {
		t.Fatalf("job-2 state = %+v", job2)
	}
}

// TestWindowKeyRoundTrip pins the ledger key encoding (it appears in
// snapshots and the budget JSON, so it is a compatibility surface).
func TestWindowKeyRoundTrip(t *testing.T) {
	for _, tc := range []struct{ span, bucket int64 }{{100, 5}, {1, -3}, {3600, 0}} {
		key := WindowKey(tc.span, tc.bucket)
		span, bucket, ok := ParseWindowKey(key)
		if !ok || span != tc.span || bucket != tc.bucket {
			t.Fatalf("round trip %q → (%d, %d, %v)", key, span, bucket, ok)
		}
	}
	if _, _, ok := ParseWindowKey("garbage"); ok {
		t.Fatal("garbage key parsed")
	}
}
