package serve

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	netdpsyn "github.com/netdpsyn/netdpsyn"
	"github.com/netdpsyn/netdpsyn/internal/serve/persist"
)

// Dataset is one registered trace: its schema metadata and the
// per-dataset budget ledger. An in-memory dataset additionally pins
// its decoded table; a streaming dataset holds no table at all — its
// records live only in the CSV spool on disk, and windowed jobs
// re-stream them through the bounded-memory synthesis path, so trace
// length is capped by disk, not RAM.
type Dataset struct {
	ID    string
	Name  string
	Kind  string // "flow" or "packet"
	Label string

	seq    int // registration order, for List
	schema *netdpsyn.Schema
	table  *netdpsyn.Table // nil for streaming and feed datasets
	spool  string          // CSV path; always set for streaming datasets
	stream bool
	rows   int // record count (streaming datasets: counted at registration)
	budget *Budget

	// Live window-feed state (nil span/feed for other dataset kinds).
	// The feed is the current epoch's; sealing closes it and the next
	// PUT opens a fresh one under epoch+1, which is what lets the same
	// bucket be released again — charged sequentially on its window
	// key. See internal/serve/feed.go.
	isFeed             bool
	span               int64
	bucketLo, bucketHi *int64 // declared bucket range (nil = undeclared)
	feedMu             sync.Mutex
	feed               *netdpsyn.WindowFeed
	epoch              int
	feedRows           int
	feedDamaged        bool      // recovery could not rebuild the epoch's windows
	lastArrival        time.Time // last PUT (or epoch open), for -seal-after
	// pending reserves buckets whose PUT is mid-flight (spool write +
	// journal run outside feedMu); feedCond signals each drain so a
	// seal can wait reservations out.
	pending  map[int64]bool
	feedCond *sync.Cond
}

// Table returns the registered trace table (nil for streaming
// datasets). Tables are append-only and never mutated after
// registration, so concurrent reads are safe.
func (d *Dataset) Table() *netdpsyn.Table { return d.table }

// Schema returns the dataset's trace schema.
func (d *Dataset) Schema() *netdpsyn.Schema { return d.schema }

// Streaming reports whether the dataset's records live only in the
// spool (windowed streaming synthesis required).
func (d *Dataset) Streaming() bool { return d.stream }

// Feed reports whether the dataset is a live window feed (records
// arrive over time via PUT; synthesis follows the feed).
func (d *Dataset) Feed() bool { return d.isFeed }

// FeedSpan returns a feed dataset's fixed window span (0 otherwise).
func (d *Dataset) FeedSpan() int64 { return d.span }

// Rows returns the dataset's record count.
func (d *Dataset) Rows() int {
	if d.table != nil {
		return d.table.NumRows()
	}
	if d.isFeed {
		d.feedMu.Lock()
		defer d.feedMu.Unlock()
		return d.feedRows
	}
	return d.rows
}

// OpenSpool opens the dataset's spooled CSV for a streaming job.
func (d *Dataset) OpenSpool() (*os.File, error) {
	if d.spool == "" {
		return nil, fmt.Errorf("serve: dataset %s has no spool", d.ID)
	}
	return os.Open(d.spool)
}

// Budget returns the dataset's zCDP ledger.
func (d *Dataset) Budget() *Budget { return d.budget }

// labelField returns the schema's label field name ("" if the schema
// has none) — the pipeline's default KeyAttr.
func (d *Dataset) labelField() string {
	if li := d.schema.LabelIndex(); li >= 0 {
		return d.schema.Fields[li].Name
	}
	return ""
}

// Info is the JSON shape of a registered dataset.
type Info struct {
	ID        string `json:"id"`
	Name      string `json:"name,omitempty"`
	Kind      string `json:"kind"`
	Label     string `json:"label,omitempty"`
	Rows      int    `json:"rows"`
	Attrs     int    `json:"attrs"`
	Streaming bool   `json:"streaming,omitempty"`
	// Feed metadata (live window-feed datasets): the fixed window
	// span, the current epoch, whether it has been sealed, and how
	// many windows it holds. BucketLo/Hi echo the declared bucket
	// range when one was registered.
	Feed          bool   `json:"feed,omitempty"`
	Span          int64  `json:"span,omitempty"`
	Epoch         int    `json:"epoch,omitempty"`
	FeedSealed    bool   `json:"feed_sealed,omitempty"`
	WindowsSealed int    `json:"windows_sealed,omitempty"`
	BucketLo      *int64 `json:"bucket_lo,omitempty"`
	BucketHi      *int64 `json:"bucket_hi,omitempty"`
	Budget        Status `json:"budget"`
}

// Info snapshots the dataset's metadata and budget state.
func (d *Dataset) Info() Info {
	info := Info{
		ID:        d.ID,
		Name:      d.Name,
		Kind:      d.Kind,
		Label:     d.Label,
		Rows:      d.Rows(),
		Attrs:     d.schema.NumFields(),
		Streaming: d.stream,
		Budget:    d.budget.Snapshot(),
	}
	if d.isFeed {
		d.feedMu.Lock()
		info.Feed = true
		info.Span = d.span
		info.Epoch = d.epoch
		info.FeedSealed = d.feed == nil || d.feed.Closed()
		info.WindowsSealed = 0
		if d.feed != nil {
			info.WindowsSealed = d.feed.Len()
		}
		info.BucketLo, info.BucketHi = d.bucketLo, d.bucketHi
		d.feedMu.Unlock()
	}
	return info
}

// ErrRegistryFull is returned by Register at the dataset cap; the
// HTTP layer maps it to 429.
var ErrRegistryFull = fmt.Errorf("serve: dataset registry is full")

// Registry holds every registered dataset. It is safe for concurrent
// use.
type Registry struct {
	mu   sync.RWMutex
	next int
	// max bounds the registry: each in-memory dataset pins its full
	// decoded table for the daemon's lifetime (there is no
	// deregistration — dropping a table would orphan its spent
	// budget), so an uncapped registry is an OOM vector. Streaming
	// datasets cost only disk, but share the cap for simplicity.
	max  int
	byID map[string]*Dataset
	// store, when non-nil, makes registrations durable: the upload is
	// spooled and the registration journaled before the dataset
	// becomes visible, so a dataset can never accumulate spend that a
	// restart would forget.
	store *persist.Store
}

// NewRegistry creates an empty registry capped at max datasets (≤ 0
// means 64). A nil store keeps the registry volatile.
func NewRegistry(max int, store *persist.Store) *Registry {
	if max <= 0 {
		max = 64
	}
	return &Registry{max: max, byID: make(map[string]*Dataset), store: store}
}

// RegisterRequest carries one registration into the registry.
type RegisterRequest struct {
	Name, Kind, Label string
	// Schema is the trace schema resolved from Kind/Label.
	Schema *netdpsyn.Schema
	// Table is the decoded trace for an in-memory dataset; nil for a
	// streaming one.
	Table *netdpsyn.Table
	// Budget is the dataset's ledger.
	Budget *Budget
	// SpoolTmp is the temp file the upload was streamed into ("" when
	// the daemon keeps no spool). With a store it is renamed to the
	// dataset's durable spool; without one (volatile streaming) it is
	// used in place.
	SpoolTmp string
	// Streaming marks a spool-only dataset (Table nil, Rows counted
	// during the registration scan).
	Streaming bool
	Rows      int
	// Feed marks a live window-feed dataset: no records at
	// registration, windows of Span timestamp units arrive via PUT.
	// BucketLo/Hi, when non-nil, declare the accepted bucket range.
	Feed               bool
	Span               int64
	BucketLo, BucketHi *int64
}

// Register installs a dataset under a fresh id, or returns
// ErrRegistryFull at the cap. With a store, the spool temp file is
// committed under the dataset id and the registration journaled
// before the dataset becomes visible; a durable-write failure returns
// ErrPersist (wrapped) and registers nothing.
func (r *Registry) Register(req RegisterRequest) (*Dataset, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.byID) >= r.max {
		return nil, fmt.Errorf("%w: %d datasets registered", ErrRegistryFull, len(r.byID))
	}
	id := fmt.Sprintf("ds-%d", r.next+1)
	// Validate the feed shape before anything durable happens: a bad
	// span or range must not burn a journaled dataset id.
	var feed *netdpsyn.WindowFeed
	if req.Feed {
		var err error
		if feed, err = netdpsyn.NewWindowFeed(req.Schema, req.Span); err != nil {
			return nil, err
		}
		if err := validBucketRange(req.BucketLo, req.BucketHi); err != nil {
			return nil, err
		}
	}
	spoolPath := req.SpoolTmp
	if r.store != nil {
		// Commit the spool before the journal record: a journaled
		// dataset must always find its CSV at replay (the reverse — an
		// orphan spool file — is harmless and cleaned up by the next
		// registration under the id). Feed datasets have no upload —
		// their windows spool one file each as they arrive.
		var name string
		if req.Feed {
			if req.SpoolTmp != "" {
				return nil, fmt.Errorf("serve: feed registration carries no upload")
			}
		} else {
			if req.SpoolTmp == "" {
				return nil, fmt.Errorf("%w: registration without a spooled upload", ErrPersist)
			}
			var err error
			name, err = r.store.CommitSpool(req.SpoolTmp, id)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrPersist, err)
			}
			spoolPath = r.store.SpoolPath(name)
		}
		st := req.Budget.Snapshot()
		err := r.store.AppendDataset(persist.DatasetRecord{
			ID:         id,
			Name:       req.Name,
			Kind:       req.Kind,
			Label:      req.Label,
			CeilingRho: st.CeilingRho,
			Delta:      st.Delta,
			Spool:      name,
			Registered: time.Now(),
			Streaming:  req.Streaming,
			Rows:       req.Rows,
			Feed:       req.Feed,
			Span:       req.Span,
			BucketLo:   req.BucketLo,
			BucketHi:   req.BucketHi,
		})
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrPersist, err)
		}
		req.Budget.bind(r.store)
	}
	d := &Dataset{
		ID:       id,
		Name:     req.Name,
		Kind:     req.Kind,
		Label:    req.Label,
		schema:   req.Schema,
		table:    req.Table,
		spool:    spoolPath,
		stream:   req.Streaming,
		rows:     req.Rows,
		budget:   req.Budget,
		isFeed:   req.Feed,
		span:     req.Span,
		bucketLo: req.BucketLo,
		bucketHi: req.BucketHi,
	}
	if req.Feed {
		d.feed = feed
		d.epoch = 1
		d.lastArrival = time.Now()
	}
	r.next++
	d.seq = r.next
	r.byID[d.ID] = d
	return d, nil
}

// reserve advances the id sequence past a journaled dataset id,
// whether or not its dataset could be restored. A skipped dataset's
// id must never be reissued: a new registration under it would
// overwrite the old spool file and collide with the old registration
// record in the durable state machine, conflating two datasets'
// ledgers.
func (r *Registry) reserve(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n, err := strconv.Atoi(strings.TrimPrefix(id, "ds-")); err == nil && n > r.next {
		r.next = n
	}
}

// restore installs a recovered dataset under its original id (call
// reserve first so the id sequence is past it). Recovery runs before
// the registry is visible to requests, so the cap is not enforced
// here: a dataset with journaled spend must never be dropped for a
// sizing knob.
func (r *Registry) restore(d *Dataset) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n, err := strconv.Atoi(strings.TrimPrefix(d.ID, "ds-")); err == nil && n > r.next {
		r.next = n
	}
	d.seq = r.next
	r.byID[d.ID] = d
}

// Get looks a dataset up by id.
func (r *Registry) Get(id string) (*Dataset, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.byID[id]
	return d, ok
}

// List returns all datasets in registration order.
func (r *Registry) List() []*Dataset {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Dataset, 0, len(r.byID))
	for _, d := range r.byID {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// configKey canonicalizes the output-relevant fields of a Config for
// the result-cache key. Workers is excluded because the staged
// engine's determinism contract makes the output byte-identical across
// worker counts at a fixed Seed, so two requests differing only in
// Workers are the same release.
func configKey(cfg netdpsyn.Config) string {
	return fmt.Sprintf("eps=%g|delta=%g|iters=%d|key=%s|tau=%g|records=%d|seed=%d|gum=%t",
		cfg.Epsilon, cfg.Delta, cfg.UpdateIterations, cfg.KeyAttr,
		cfg.Tau, cfg.SynthRecords, cfg.Seed, cfg.UseGUM)
}
