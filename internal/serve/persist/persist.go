// Package persist is the durable state layer behind the netdpsynd
// service: an append-only journal of dataset registrations, budget
// charges, and job terminals, compacted periodically into a snapshot,
// plus a spool directory holding each registered dataset's raw CSV so
// the table can be re-ingested after a restart.
//
// The privacy argument for durability: the service's (ε, δ) claim
// rests on cumulative zCDP accounting, and an in-memory ledger
// forgets cumulative spend on restart — which silently resets the
// meter and lets a sequence of restarts release unbounded information
// from the same trace. Forgetting spend is a privacy bug, not a
// convenience bug. The journal therefore makes every charge durable
// (fsync) *before* the job it admits is allowed to run, and replay is
// governed by one rule: when the journal is ambiguous, the
// conservative reading wins — spend is never refunded, an
// admitted-but-unfinished job replays as a charged failure, and a
// record we cannot attribute is dropped rather than guessed at.
//
// On-disk layout under the state dir:
//
//	journal.log    append-only JSON lines, one record each, fsync'd
//	snapshot.json  compacted state as of a journal sequence number
//	spool/         raw CSV per dataset (ds-<n>.csv), re-ingested at boot
//
// Replay order: load snapshot.json if present, then apply journal
// records with seq greater than the snapshot's — records at or below
// it are the leftovers of a compaction that crashed between the
// snapshot rename and the journal truncation, and skipping them is
// what keeps a charge from double-applying. A torn tail (the record
// being written when the process died) is truncated away at open; a
// valid record of an unknown type is skipped and counted, so a newer
// daemon's journal still replays on an older one.
package persist

import (
	"encoding/json"
	"fmt"
	"time"

	netdpsyn "github.com/netdpsyn/netdpsyn"
)

// Journal record types. Unknown values of record.T are skipped at
// replay (forward compatibility), never treated as corruption.
const (
	recDataset    = "dataset"
	recCharge     = "charge"
	recTerminal   = "terminal"
	recWindow     = "window"  // live-feed window arrival (sealed bucket)
	recWCharge    = "wcharge" // per-window-key budget charge
	recFeed       = "feed"    // feed epoch close
	recEvalCharge = "echarge" // evaluation admission charge (raw-data query)
)

// DatasetRecord journals one dataset registration. The raw CSV is
// already durable in the spool (written and fsync'd before this
// record is appended), so replay re-ingests Spool against the schema
// named by Kind/Label.
type DatasetRecord struct {
	ID         string    `json:"id"`
	Name       string    `json:"name,omitempty"`
	Kind       string    `json:"kind"`
	Label      string    `json:"label,omitempty"`
	CeilingRho float64   `json:"ceiling_rho"`
	Delta      float64   `json:"delta"`
	Spool      string    `json:"spool"`
	Registered time.Time `json:"registered"`
	// Streaming marks a dataset registered for windowed streaming
	// synthesis: its trace lives only in the spool (never as an
	// in-memory table) and Rows is its record count, measured during
	// the registration scan. Older journals lack these fields and
	// unmarshal to the in-memory default.
	Streaming bool `json:"streaming,omitempty"`
	Rows      int  `json:"rows,omitempty"`
	// Feed marks a live window-feed dataset: it holds no trace at
	// registration — windows of Span timestamp units arrive over time
	// as WindowRecords (one durable spool file each). BucketLo/Hi,
	// when set, are the declared bucket range: arrivals outside it are
	// rejected at the door, so the set of *released* buckets within
	// the range is the only occupancy the service discloses by
	// construction rather than by accident.
	Feed     bool   `json:"feed,omitempty"`
	Span     int64  `json:"span,omitempty"`
	BucketLo *int64 `json:"bucket_lo,omitempty"`
	BucketHi *int64 `json:"bucket_hi,omitempty"`
}

// WindowRecord journals one sealed live-feed window. The window's CSV
// is already durable in the spool under Spool (written and fsync'd
// before this record is appended), so replay can rebuild the feed and
// a resumed follow job can re-release the window byte-identically.
// Epoch numbers feed generations: a bucket seals at most once per
// epoch, and a record with a higher epoch than the dataset's current
// one supersedes all earlier epochs' windows.
type WindowRecord struct {
	DatasetID string    `json:"dataset_id"`
	Epoch     int       `json:"epoch"`
	Bucket    int64     `json:"bucket"`
	Rows      int       `json:"rows"`
	Spool     string    `json:"spool"`
	Received  time.Time `json:"received"`
}

// WindowChargeRecord journals one per-window-key budget charge: the ρ
// a window's release adds to the (Span, Bucket) key of the dataset's
// ledger. Distinct keys of one span compose in parallel (the ledger
// position is the max across them), re-charges of the same key
// compose sequentially (they add). It is fsync'd before the window it
// admits is synthesized.
type WindowChargeRecord struct {
	JobID     string  `json:"job_id"`
	DatasetID string  `json:"dataset_id"`
	Span      int64   `json:"span"`
	Bucket    int64   `json:"bucket"`
	Rho       float64 `json:"rho"`
}

// FeedRecord journals a feed epoch closing: no more windows will
// arrive in this epoch, so follow jobs drain and finish. A later
// WindowRecord with a higher epoch reopens the feed.
type FeedRecord struct {
	DatasetID string `json:"dataset_id"`
	Epoch     int    `json:"epoch"`
}

// WindowKey renders the per-window ledger key for a (span, bucket)
// pair — the map key used in DatasetState.WindowRho and the budget
// status JSON.
func WindowKey(span, bucket int64) string {
	return fmt.Sprintf("s%d/b%d", span, bucket)
}

// ParseWindowKey inverts WindowKey; ok is false for a malformed key
// (a hand-edited snapshot — the caller skips it, conservatively
// keeping the spend elsewhere rather than guessing).
func ParseWindowKey(key string) (span, bucket int64, ok bool) {
	var s, b int64
	if n, err := fmt.Sscanf(key, "s%d/b%d", &s, &b); err != nil || n != 2 {
		return 0, 0, false
	}
	return s, b, true
}

// ChargeRecord journals one admitted release: the ρ charged against
// the dataset's ledger and the normalized configuration of the job it
// admitted. It is fsync'd before the job is enqueued, so a charge
// that influenced any computation is always recoverable.
type ChargeRecord struct {
	JobID     string          `json:"job_id"`
	DatasetID string          `json:"dataset_id"`
	Rho       float64         `json:"rho"`
	Config    netdpsyn.Config `json:"config"`
	Submitted time.Time       `json:"submitted"`
	// Span > 0 marks a time-span windowed release. Rho is the SCALAR
	// charge applied to the ledger at admission: the full ρ for
	// whole-trace jobs. Span and follow jobs admit at Rho 0 — their
	// spend lands per window key as WindowChargeRecords while the job
	// runs, which is what lets distinct buckets compose in parallel
	// and the same bucket re-release sequentially. Older journals
	// carry span admissions with Rho = ρ, and count-window admissions
	// (with a "windows" field this type no longer decodes) with
	// windows × ρ; replaying them as scalar spend is the conservative
	// reading.
	Span int64 `json:"span,omitempty"`
	// Follow marks a live-feed follow job and Epoch the feed epoch it
	// consumes (also set on span jobs for symmetry: 0).
	Follow bool `json:"follow,omitempty"`
	Epoch  int  `json:"epoch,omitempty"`
}

// EvalChargeRecord journals one admitted evaluation job: a query that
// scores a finished release against the dataset. Rho is the scalar
// charge applied to the ledger at admission — positive when the
// requested metrics read the raw spool (fidelity/ML/MIA are
// statistical queries against the protected trace), zero when the
// evaluation reads only the released CSV (post-processing of a DP
// release is free). Like every charge it is fsync'd before the job
// runs and is never refunded: a killed evaluation replays as a
// charged failure.
type EvalChargeRecord struct {
	JobID     string    `json:"job_id"`
	DatasetID string    `json:"dataset_id"`
	TargetJob string    `json:"target_job"`
	Rho       float64   `json:"rho"`
	Metrics   []string  `json:"metrics,omitempty"`
	Models    []string  `json:"models,omitempty"`
	Epsilon   float64   `json:"epsilon,omitempty"`
	Delta     float64   `json:"delta,omitempty"`
	Seed      uint64    `json:"seed,omitempty"`
	Submitted time.Time `json:"submitted"`
}

// TerminalRecord journals a job reaching a terminal state. It is
// best-effort: a lost terminal record makes the job replay as an
// interrupted charged failure, which is the conservative direction
// (the charge is retained either way).
type TerminalRecord struct {
	JobID   string `json:"job_id"`
	State   string `json:"state"` // "done" | "failed"
	Records int    `json:"records,omitempty"`
	Error   string `json:"error,omitempty"`
	// Evaluation carries a finished evaluation job's scores (the serve
	// layer's structured evaluation block, opaque here) so a restart
	// can still answer GET /jobs/{id} for a done evaluation without
	// re-running — and re-charging — the query.
	Evaluation json.RawMessage `json:"evaluation,omitempty"`
}

// record is the journal line envelope. Exactly one payload pointer is
// set per record; Seq is assigned at append and strictly increases
// within one journal generation.
type record struct {
	Seq uint64              `json:"seq"`
	T   string              `json:"t"`
	DS  *DatasetRecord      `json:"ds,omitempty"`
	CH  *ChargeRecord       `json:"ch,omitempty"`
	TM  *TerminalRecord     `json:"tm,omitempty"`
	WD  *WindowRecord       `json:"wd,omitempty"`
	WC  *WindowChargeRecord `json:"wc,omitempty"`
	FD  *FeedRecord         `json:"fd,omitempty"`
	EC  *EvalChargeRecord   `json:"ec,omitempty"`
}

// DatasetState is a dataset's replayed durable state: its
// registration record plus the accumulated ledger position. SpentRho
// is the scalar spend (whole-trace releases, evaluations, and count
// windows replayed from older journals); WindowRho is the
// per-window-key spend, keyed by WindowKey(span, bucket) — the ledger
// position a restart restores is SpentRho plus, per span, the max
// across that span's keys.
type DatasetState struct {
	DatasetRecord
	SpentRho  float64            `json:"spent_rho"`
	Releases  int                `json:"releases"`
	WindowRho map[string]float64 `json:"window_rho,omitempty"`
	// FeedEpoch/FeedClosed/Windows are the live feed's durable state:
	// the current epoch, whether it has closed, and its sealed windows
	// in arrival order (earlier epochs' windows are superseded and
	// dropped at replay).
	FeedEpoch  int            `json:"feed_epoch,omitempty"`
	FeedClosed bool           `json:"feed_closed,omitempty"`
	Windows    []WindowRecord `json:"windows,omitempty"`
}

// JobState is a job's replayed durable state: its admission charge
// plus the terminal outcome, if one was journaled. State == "" means
// the job was admitted (and charged) but never reached a terminal
// record — the daemon died with it in flight — and the service layer
// must surface it as a charged failure, never silently re-run it.
type JobState struct {
	ChargeRecord
	State   string `json:"state,omitempty"`
	Records int    `json:"records,omitempty"`
	Error   string `json:"error,omitempty"`
	// ChargedBuckets lists the window keys this job already charged
	// (span/follow jobs), in charge order. A resumed or resurrected
	// job skips re-charging these — re-releasing the same bucket from
	// the same records and seed is the identical deterministic
	// computation, so it costs nothing new.
	ChargedBuckets []int64 `json:"charged_buckets,omitempty"`
	// Eval marks an evaluation job: its admission record (the
	// embedded ChargeRecord carries only the scalar fields replay
	// needs — id, dataset, ρ, submission time). Evaluation is the
	// finished job's score block from its terminal record, if one was
	// journaled.
	Eval       *EvalChargeRecord `json:"eval,omitempty"`
	Evaluation json.RawMessage   `json:"evaluation,omitempty"`
}

// State is the durable state replayed at Open: every dataset with its
// cumulative spend, every remembered job, and counters describing
// what replay had to skip or drop.
type State struct {
	// Seq is the sequence number of the last applied record.
	Seq uint64
	// Datasets and Jobs are in registration / admission order.
	Datasets []DatasetState
	Jobs     []JobState
	// SkippedRecords counts journal records that were valid but not
	// applicable: unknown types (forward compatibility) and records
	// referencing unknown datasets or jobs.
	SkippedRecords int
	// TruncatedBytes is the size of the torn tail dropped from the
	// journal at open (0 when the journal ended cleanly).
	TruncatedBytes int64
}

// snapshotFile is the JSON shape of snapshot.json: the full memState
// as of journal sequence Seq.
type snapshotFile struct {
	Version  int            `json:"version"`
	Seq      uint64         `json:"seq"`
	Datasets []DatasetState `json:"datasets"`
	Jobs     []JobState     `json:"jobs"`
}

// snapshotVersion is written to (and the ceiling accepted from)
// snapshot.json.
const snapshotVersion = 1

// maxJobHistory bounds the job entries a snapshot carries: past it,
// the oldest *terminal* jobs are forgotten. Their spend is already
// accumulated in DatasetState.SpentRho, so forgetting the metadata
// never forgets the charge; charged-but-unfinished jobs are never
// dropped.
const maxJobHistory = 4096

// memState is the store's in-memory mirror of the durable state: the
// same state machine runs at replay and after every append, so the
// snapshot written at compaction is always exactly "the journal so
// far".
type memState struct {
	seq      uint64
	dsOrder  []*DatasetState
	dsByID   map[string]*DatasetState
	jobOrder []*JobState
	jobByID  map[string]*JobState
	skipped  int
}

func newMemState() *memState {
	return &memState{
		dsByID:  make(map[string]*DatasetState),
		jobByID: make(map[string]*JobState),
	}
}

// apply runs one record through the state machine. Unknown record
// types, duplicate IDs, and references to unknown IDs are skipped and
// counted — replay must degrade by dropping information, never by
// double-applying a charge or inventing one.
func (m *memState) apply(rec *record) {
	switch rec.T {
	case recDataset:
		if rec.DS == nil {
			m.skipped++
			return
		}
		if _, ok := m.dsByID[rec.DS.ID]; ok {
			m.skipped++ // duplicate registration: first wins
			return
		}
		ds := &DatasetState{DatasetRecord: *rec.DS}
		m.dsByID[ds.ID] = ds
		m.dsOrder = append(m.dsOrder, ds)
	case recCharge:
		if rec.CH == nil {
			m.skipped++
			return
		}
		if _, ok := m.jobByID[rec.CH.JobID]; ok {
			m.skipped++ // duplicate admission: the charge is already counted
			return
		}
		if ds, ok := m.dsByID[rec.CH.DatasetID]; ok {
			ds.SpentRho += rec.CH.Rho
			ds.Releases++
		} else {
			// Charge against an unknown dataset: there is no ledger to
			// restore the spend into, but the job entry is kept anyway
			// so its id stays occupied — a reissued job id would make
			// the duplicate-admission guard above swallow a real
			// future charge.
			m.skipped++
		}
		j := &JobState{ChargeRecord: *rec.CH}
		m.jobByID[j.JobID] = j
		m.jobOrder = append(m.jobOrder, j)
	case recTerminal:
		if rec.TM == nil {
			m.skipped++
			return
		}
		j, ok := m.jobByID[rec.TM.JobID]
		if !ok {
			m.skipped++
			return
		}
		// Later terminals win: a done job resurrected after result
		// eviction finishes again with a fresh terminal record.
		j.State = rec.TM.State
		j.Records = rec.TM.Records
		j.Error = rec.TM.Error
		j.Evaluation = rec.TM.Evaluation
	case recWindow:
		if rec.WD == nil {
			m.skipped++
			return
		}
		ds, ok := m.dsByID[rec.WD.DatasetID]
		if !ok {
			m.skipped++
			return
		}
		if rec.WD.Epoch < ds.FeedEpoch {
			m.skipped++ // stale epoch: already superseded
			return
		}
		ds.advanceEpoch(rec.WD.Epoch)
		for _, w := range ds.Windows {
			if w.Bucket == rec.WD.Bucket {
				m.skipped++ // duplicate seal: first wins
				return
			}
		}
		ds.Windows = append(ds.Windows, *rec.WD)
	case recFeed:
		if rec.FD == nil {
			m.skipped++
			return
		}
		ds, ok := m.dsByID[rec.FD.DatasetID]
		if !ok {
			m.skipped++
			return
		}
		if rec.FD.Epoch < ds.FeedEpoch {
			m.skipped++
			return
		}
		ds.advanceEpoch(rec.FD.Epoch)
		ds.FeedClosed = true
	case recWCharge:
		if rec.WC == nil {
			m.skipped++
			return
		}
		// The ledger position and the job's charged set are tracked
		// independently: a charge against a swept job still counts
		// against the dataset (spend is never forgotten), and a charge
		// against an unknown dataset is still pinned to the job so a
		// resumed job never re-charges it.
		applied := false
		if ds, ok := m.dsByID[rec.WC.DatasetID]; ok {
			if ds.WindowRho == nil {
				ds.WindowRho = make(map[string]float64)
			}
			ds.WindowRho[WindowKey(rec.WC.Span, rec.WC.Bucket)] += rec.WC.Rho
			applied = true
		}
		if j, ok := m.jobByID[rec.WC.JobID]; ok {
			j.ChargedBuckets = append(j.ChargedBuckets, rec.WC.Bucket)
			applied = true
		}
		if !applied {
			m.skipped++
		}
	case recEvalCharge:
		if rec.EC == nil {
			m.skipped++
			return
		}
		if _, ok := m.jobByID[rec.EC.JobID]; ok {
			m.skipped++ // duplicate admission: the charge is already counted
			return
		}
		if ds, ok := m.dsByID[rec.EC.DatasetID]; ok {
			ds.SpentRho += rec.EC.Rho
			if rec.EC.Rho > 0 {
				ds.Releases++
			}
		} else {
			m.skipped++ // see the recCharge case: keep the job id occupied
		}
		ec := *rec.EC
		j := &JobState{
			ChargeRecord: ChargeRecord{
				JobID:     ec.JobID,
				DatasetID: ec.DatasetID,
				Rho:       ec.Rho,
				Submitted: ec.Submitted,
			},
			Eval: &ec,
		}
		m.jobByID[j.JobID] = j
		m.jobOrder = append(m.jobOrder, j)
	default:
		m.skipped++ // forward compatibility: newer daemons may journal new types
	}
	m.sweepJobs()
}

// advanceEpoch moves a dataset's feed to a newer epoch, superseding
// the previous epoch's windows and reopening the feed.
func (ds *DatasetState) advanceEpoch(epoch int) {
	if epoch > ds.FeedEpoch {
		ds.FeedEpoch = epoch
		ds.FeedClosed = false
		ds.Windows = nil
	}
}

// sweepJobs enforces maxJobHistory by forgetting the oldest terminal
// jobs. Spend stays accumulated in the dataset states.
func (m *memState) sweepJobs() {
	if len(m.jobOrder) <= maxJobHistory {
		return
	}
	kept := m.jobOrder[:0]
	for _, j := range m.jobOrder {
		if len(m.jobByID) > maxJobHistory && j.State != "" {
			delete(m.jobByID, j.JobID)
			continue
		}
		kept = append(kept, j)
	}
	for i := len(kept); i < len(m.jobOrder); i++ {
		m.jobOrder[i] = nil
	}
	m.jobOrder = kept
}

// restore loads a snapshot into the state machine (replacing it).
func (m *memState) restore(sf *snapshotFile) {
	m.seq = sf.Seq
	m.dsOrder = m.dsOrder[:0]
	m.dsByID = make(map[string]*DatasetState, len(sf.Datasets))
	for i := range sf.Datasets {
		ds := sf.Datasets[i]
		if _, ok := m.dsByID[ds.ID]; ok {
			m.skipped++
			continue
		}
		p := &ds
		m.dsByID[p.ID] = p
		m.dsOrder = append(m.dsOrder, p)
	}
	m.jobOrder = m.jobOrder[:0]
	m.jobByID = make(map[string]*JobState, len(sf.Jobs))
	for i := range sf.Jobs {
		j := sf.Jobs[i]
		if _, ok := m.jobByID[j.JobID]; ok {
			m.skipped++
			continue
		}
		p := &j
		m.jobByID[p.JobID] = p
		m.jobOrder = append(m.jobOrder, p)
	}
}

// snapshot copies the state machine into an externally-safe State.
// Maps and slices are deep-copied: the state machine keeps mutating
// them on later appends, and the snapshot must stay a point in time.
func (m *memState) snapshot() *State {
	st := &State{
		Seq:            m.seq,
		Datasets:       make([]DatasetState, len(m.dsOrder)),
		Jobs:           make([]JobState, len(m.jobOrder)),
		SkippedRecords: m.skipped,
	}
	for i, ds := range m.dsOrder {
		c := *ds
		if ds.WindowRho != nil {
			c.WindowRho = make(map[string]float64, len(ds.WindowRho))
			for k, v := range ds.WindowRho {
				c.WindowRho[k] = v
			}
		}
		c.Windows = append([]WindowRecord(nil), ds.Windows...)
		st.Datasets[i] = c
	}
	for i, j := range m.jobOrder {
		c := *j
		c.ChargedBuckets = append([]int64(nil), j.ChargedBuckets...)
		if j.Eval != nil {
			e := *j.Eval
			e.Metrics = append([]string(nil), j.Eval.Metrics...)
			e.Models = append([]string(nil), j.Eval.Models...)
			c.Eval = &e
		}
		c.Evaluation = append(json.RawMessage(nil), j.Evaluation...)
		st.Jobs[i] = c
	}
	return st
}
