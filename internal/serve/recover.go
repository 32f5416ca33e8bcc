package serve

import (
	"fmt"
	"os"
	"time"

	netdpsyn "github.com/netdpsyn/netdpsyn"
	"github.com/netdpsyn/netdpsyn/internal/serve/persist"
)

// RecoveryInfo summarizes what a Server restored from its state dir
// at boot; the daemon logs it so an operator can audit a restart.
type RecoveryInfo struct {
	// StateDir is the recovered state dir.
	StateDir string `json:"state_dir"`
	// Datasets counts re-ingested datasets; SpentRho is their summed
	// cumulative spend (monotone across restarts: replay only ever
	// adds charges, never refunds).
	Datasets int     `json:"datasets"`
	SpentRho float64 `json:"spent_rho"`
	// Jobs counts restored job records; InterruptedJobs of them were
	// admitted (and charged) but unfinished at the crash and replay as
	// charged failures. PersistedResults counts done jobs whose
	// synthesized CSV was found in the results spool — those serve
	// result.csv directly, no regeneration.
	Jobs             int `json:"jobs"`
	InterruptedJobs  int `json:"interrupted_jobs"`
	PersistedResults int `json:"persisted_results,omitempty"`
	// FeedWindows counts live-feed windows re-published from the
	// spool; ResumedFollowJobs counts unfinished follow jobs that
	// resumed against their rebuilt feed (exact per-key ledger
	// positions, already-charged buckets re-released at zero cost)
	// instead of replaying as charged failures.
	FeedWindows       int `json:"feed_windows,omitempty"`
	ResumedFollowJobs int `json:"resumed_follow_jobs,omitempty"`
	// SkippedRecords counts journal records replay could not apply
	// (unknown types, unknown references); TruncatedBytes is the torn
	// journal tail dropped at open.
	SkippedRecords int   `json:"skipped_records,omitempty"`
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`
	// Warnings describe datasets that could not be re-ingested (their
	// jobs are kept, but no new releases can be admitted for them).
	Warnings []string `json:"warnings,omitempty"`
}

// String renders the one-line boot summary.
func (r *RecoveryInfo) String() string {
	s := fmt.Sprintf("recovered %d dataset(s) (cumulative ρ=%.6g) and %d job(s), %d interrupted → charged failures",
		r.Datasets, r.SpentRho, r.Jobs, r.InterruptedJobs)
	if r.PersistedResults > 0 {
		s += fmt.Sprintf(", %d persisted result(s)", r.PersistedResults)
	}
	if r.FeedWindows > 0 {
		s += fmt.Sprintf(", %d feed window(s)", r.FeedWindows)
	}
	if r.ResumedFollowJobs > 0 {
		s += fmt.Sprintf(", %d follow job(s) resumed", r.ResumedFollowJobs)
	}
	if r.SkippedRecords > 0 {
		s += fmt.Sprintf(", %d record(s) skipped", r.SkippedRecords)
	}
	if r.TruncatedBytes > 0 {
		s += fmt.Sprintf(", %d torn byte(s) truncated", r.TruncatedBytes)
	}
	if len(r.Warnings) > 0 {
		s += fmt.Sprintf(", %d warning(s)", len(r.Warnings))
	}
	return s
}

// restoreState rebuilds the registry and queue from replayed durable
// state: datasets re-ingest their spooled CSV and restore their
// ledger position; jobs restore per Queue.restoreJobs. A dataset that
// fails to re-ingest is reported as a warning and skipped — its jobs
// survive as metadata, and since the dataset is absent no release can
// be admitted against its (unreconstructible) ledger, which is the
// conservative direction.
func restoreState(reg *Registry, q *Queue, store *persist.Store, st *persist.State) *RecoveryInfo {
	info := &RecoveryInfo{
		StateDir:       store.Dir(),
		SkippedRecords: st.SkippedRecords,
		TruncatedBytes: st.TruncatedBytes,
	}
	for i := range st.Datasets {
		ds := &st.Datasets[i]
		// Reserve the id up front: even a dataset that fails to
		// restore below keeps its id, so a future registration can
		// never reuse it (reuse would overwrite the old spool and
		// conflate two ledgers in the durable state).
		reg.reserve(ds.ID)
		schema, err := journaledSchema(ds.Kind, ds.Label)
		if err != nil {
			// Registration refuses such a schema, so only a hand-edited
			// journal holds one: skip it as an unknown kind is skipped.
			info.Warnings = append(info.Warnings,
				fmt.Sprintf("dataset %s: %v, not restored", ds.ID, err))
			continue
		}
		spoolPath := store.SpoolPath(ds.Spool)
		var table *netdpsyn.Table
		var (
			feed        *netdpsyn.WindowFeed
			feedRows    int
			feedDamaged bool
		)
		switch {
		case ds.Feed:
			// A feed dataset's records are its journaled windows: one
			// durable spool file each, re-published into a rebuilt
			// feed so a resumed follow job re-releases them
			// byte-identically. A window that cannot be re-published
			// marks the epoch damaged — its follow jobs fall back to
			// charged failures rather than releasing a partial epoch
			// under a resumed identity, and the next PUT opens a
			// fresh epoch.
			var err error
			if feed, err = netdpsyn.NewWindowFeed(schema, ds.Span); err != nil {
				info.Warnings = append(info.Warnings,
					fmt.Sprintf("dataset %s: rebuild feed: %v, not restored", ds.ID, err))
				continue
			}
			for _, wrec := range ds.Windows {
				f, err := os.Open(store.SpoolPath(wrec.Spool))
				var wt *netdpsyn.Table
				if err == nil {
					wt, err = netdpsyn.LoadCSV(f, schema)
					f.Close()
				}
				if err == nil {
					err = feed.Publish(wrec.Bucket, wt)
				}
				if err != nil {
					info.Warnings = append(info.Warnings,
						fmt.Sprintf("dataset %s: window %d (epoch %d): %v — feed epoch marked damaged", ds.ID, wrec.Bucket, wrec.Epoch, err))
					feedDamaged = true
					break
				}
				feedRows += wt.NumRows()
				info.FeedWindows++
			}
			if ds.FeedClosed || feedDamaged {
				feed.Close()
			}
		case ds.Streaming:
			// A streaming dataset's trace lives only in the spool; it
			// is re-streamed per windowed job, never materialized. The
			// file just has to be there.
			if _, err := os.Stat(spoolPath); err != nil {
				info.Warnings = append(info.Warnings,
					fmt.Sprintf("dataset %s: stat spool: %v, not restored", ds.ID, err))
				continue
			}
		default:
			f, err := os.Open(spoolPath)
			if err != nil {
				info.Warnings = append(info.Warnings,
					fmt.Sprintf("dataset %s: open spool: %v, not restored", ds.ID, err))
				continue
			}
			table, err = netdpsyn.LoadCSV(f, schema)
			f.Close()
			if err != nil {
				info.Warnings = append(info.Warnings,
					fmt.Sprintf("dataset %s: re-ingest spool %s: %v, not restored", ds.ID, ds.Spool, err))
				continue
			}
		}
		b, err := NewBudget(ds.CeilingRho, ds.Delta)
		if err != nil {
			info.Warnings = append(info.Warnings,
				fmt.Sprintf("dataset %s: restore ledger: %v, not restored", ds.ID, err))
			continue
		}
		b.restore(ds.SpentRho, ds.Releases)
		for key, rho := range ds.WindowRho {
			span, bucket, ok := persist.ParseWindowKey(key)
			if !ok {
				// Unparseable key (hand-edited snapshot): fold the
				// spend into the scalar axis instead — strictly more
				// conservative than dropping it.
				b.forceScalar(rho)
				info.Warnings = append(info.Warnings,
					fmt.Sprintf("dataset %s: bad window key %q, spend folded into the scalar ledger", ds.ID, key))
				continue
			}
			b.restoreWindow(span, bucket, rho)
		}
		spent := b.Snapshot().SpentRho
		b.bind(store)
		epoch := ds.FeedEpoch
		if ds.Feed && epoch == 0 {
			epoch = 1 // a feed that never saw a window is still epoch 1
		}
		reg.restore(&Dataset{
			ID:          ds.ID,
			Name:        ds.Name,
			Kind:        ds.Kind,
			Label:       ds.Label,
			schema:      schema,
			table:       table,
			spool:       spoolPath,
			stream:      ds.Streaming,
			rows:        ds.Rows,
			budget:      b,
			isFeed:      ds.Feed,
			span:        ds.Span,
			bucketLo:    ds.BucketLo,
			bucketHi:    ds.BucketHi,
			feed:        feed,
			epoch:       epoch,
			feedRows:    feedRows,
			feedDamaged: feedDamaged,
			lastArrival: time.Now(),
		})
		info.Datasets++
		info.SpentRho += spent
	}
	q.restoreJobs(st.Jobs, info)
	return info
}
