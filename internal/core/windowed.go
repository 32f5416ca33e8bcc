package core

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"github.com/netdpsyn/netdpsyn/internal/dataset"
	"github.com/netdpsyn/netdpsyn/internal/trace"
)

// WindowSource yields disjoint time-contiguous record partitions of
// one trace, in time order. Next returns io.EOF after the last
// window; an empty window (zero rows) is skipped by the engine but
// still consumes its emission index, so a source's numbering is
// stable whether or not every window is populated. The Window.ID is
// the partition's seed identity — the engine derives the per-window
// pipeline seed from it, so sources for which the parallel-composition
// argument should hold must make it a data-independent function of
// the partition (time-span sources use the absolute time bucket).
// dataset.StreamWindows, dataset.LiveWindows and NewTableTimeWindows
// all satisfy this.
//
// A source is NOT required to be finite or prompt: Next may block
// indefinitely awaiting data that has not arrived yet (a live window
// feed behind continuous ingest). Such sources should also implement
// StoppableSource, or an aborted stream would leak its producer
// goroutine inside a Next that never returns.
type WindowSource interface {
	Next() (dataset.Window, error)
}

// StoppableSource is the optional extension live (blocking) sources
// implement. SynthesizeStream calls Stop exactly once when the stream
// aborts — an emit error, a window pipeline failure, or a source
// error — and a pending or future Next must then return promptly
// (returning io.EOF is fine; the engine is already failing and only
// needs the producer unblocked). Stop must be safe to call
// concurrently with Next. dataset.LiveWindows implements it.
type StoppableSource interface {
	WindowSource
	Stop()
}

// PreparedSource is the optional extension a source of one table
// implements when it holds that table's prepared form (Prepare).
// Prepared returns the form, or nil to have the window prepared inline.
// The engine uses a form only for the exact table it was built from,
// and only when the run's DisableTSDiff and first-pass binning fields
// match it; any other form fails the window.
type PreparedSource interface {
	WindowSource
	Prepared() *Prepared
}

// WindowResult is one synthesized window, delivered incrementally by
// SynthesizeStream in window order.
type WindowResult struct {
	// Window is the source's window index.
	Window int
	// Bucket is the source's Window.ID for this partition — the
	// absolute time bucket for span sources. It identifies the window
	// to budget ledgers and job traces without re-deriving it from the
	// data.
	Bucket int64
	// Table is the synthesized trace for this window.
	Table *dataset.Table
	// Report carries the window's pipeline diagnostics.
	Report Report
}

// SynthesizeStream pulls windows from src and synthesizes each one
// through the full pipeline as it arrives, emitting results in window
// order. Memory stays bounded by the concurrency, not the stream
// length: at most `workers` windows exist at once (in flight or
// finished-but-unemitted), and a window's slot is released only when
// its result has been emitted, so a slow early window cannot let the
// reorder buffer grow without bound.
//
// The source may be live: Next blocking for minutes awaiting the next
// window is normal operation, not a stall. Pipelines for windows that
// already arrived run (and emit) while the producer waits, so a
// continuous feed sees each window synthesized as it lands, and the
// call returns only when the source ends (io.EOF) or the stream
// fails. On failure a StoppableSource is stopped so a blocked Next
// cannot strand the producer.
//
// Privacy: every window is synthesized under the full (ε, δ) budget
// of cfg, each window's pipeline is seeded from (cfg.Seed, Window.ID)
// alone, and each sees only its own window's records (including its
// own categorical dictionaries), so a window's output is a
// deterministic function of its partition and its ID. With
// data-independent membership — fixed time-span windows, where both a
// record's window and that window's ID are functions of the record
// alone — parallel composition applies and the whole release is
// (ε, δ)-DP at record level. A custom source whose membership or IDs
// depend on other records forfeits that argument. Either way the
// emitted stream is byte-identical for any worker count, and
// identical to the batch path over the same partitions.
//
// An error from the source, a window pipeline, or emit stops the
// stream after the in-flight windows drain; the lowest-index window
// failure wins, mirroring a sequential loop.
func SynthesizeStream(src WindowSource, cfg Config, emit func(WindowResult) error) error {
	return SynthesizeStreamCtx(context.Background(), src, cfg, emit)
}

// SynthesizeStreamCtx is SynthesizeStream with a context that parents
// each window pipeline's per-stage pprof labels — see
// Pipeline.SynthesizeCtx. Labels only, never cancellation.
func SynthesizeStreamCtx(ctx context.Context, src WindowSource, cfg Config, emit func(WindowResult) error) error {
	if src == nil {
		return fmt.Errorf("core: nil window source")
	}
	eng := newEngine(cfg.Workers)
	conc := eng.workers
	type outcome struct {
		w   int
		id  int64 // the source's Window.ID
		res *Result
		err error
	}
	results := make(chan outcome, conc)
	sem := make(chan struct{}, conc)
	stop := make(chan struct{})
	var stopOnce sync.Once
	abort := func() {
		stopOnce.Do(func() {
			close(stop)
			// A live source's producer may be parked inside Next
			// awaiting a window that will never matter now; stop it so
			// the drain below can finish.
			if st, ok := src.(StoppableSource); ok {
				st.Stop()
			}
		})
	}

	// When the source knows its window count up front (a pre-loaded
	// table's time buckets), small runs split the worker budget instead
	// of pinning each window to one worker — 2 windows on an 8-worker
	// budget get 4 workers each.
	// Unknown-length streams keep conc = workers with 1 worker per
	// window, the long-stream optimum. Worker counts never affect
	// output, only scheduling.
	if wc, ok := src.(interface{ Windows() int }); ok {
		if n := wc.Windows(); n > 0 && n < conc {
			conc = n
		}
	}
	innerWorkers, rem := eng.workers/conc, eng.workers%conc
	var prep *Prepared
	if ps, ok := src.(PreparedSource); ok {
		prep = ps.Prepared()
	}

	var srcErr error
	go func() {
		var wg sync.WaitGroup
		defer func() {
			wg.Wait()
			close(results)
		}()
		launched := 0
		for w := 0; ; w++ {
			win, err := src.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				srcErr = err // read by the collector only after close(results)
				return
			}
			part := win.Table
			if part == nil || part.NumRows() == 0 {
				// Empty window (a custom source may yield one): it keeps
				// its index — the collector must see a marker for it, or
				// the in-order emitter would wait forever on a window
				// that never comes. No sem slot: nothing runs.
				select {
				case <-stop:
					return
				case results <- outcome{w: w, id: win.ID}:
				}
				continue
			}
			select {
			case <-stop:
				return
			case sem <- struct{}{}:
			}
			li := launched
			launched++
			wg.Add(1)
			go func(w, li int, id int64, part *dataset.Table) {
				defer wg.Done()
				wcfg := cfg
				wcfg.Workers = innerWorkers
				if li%conc < rem {
					// Remainder workers rotate across the in-flight
					// slots so the total stays within the budget at any
					// instant.
					wcfg.Workers++
				}
				// The seed identity is the source's Window.ID, not the
				// emission index: for span sources that keeps every
				// window's seed a function of its own records, so a
				// record added elsewhere cannot perturb this window's
				// output (required for parallel composition).
				wcfg.Seed = cfg.Seed + uint64(id)*0x9e3779b9
				p, err := NewPipeline(wcfg)
				if err != nil {
					results <- outcome{w: w, id: id, err: err}
					return
				}
				res, err := p.synthesize(ctx, part, prep)
				if err != nil {
					err = fmt.Errorf("core: window %d: %w", w, err)
				}
				results <- outcome{w: w, id: id, res: res, err: err}
			}(w, li, win.ID, part)
		}
	}()

	var (
		buf      = make(map[int]outcome) // res == nil marks an empty window
		next     int
		failedAt = -1
		failErr  error
	)
	for oc := range results {
		if oc.err != nil {
			if failedAt < 0 || oc.w < failedAt {
				failedAt, failErr = oc.w, oc.err
			}
			abort()
			continue
		}
		if failedAt >= 0 {
			continue // already failing: drain without emitting
		}
		buf[oc.w] = oc
		for {
			o, ok := buf[next]
			if !ok {
				break
			}
			if o.res == nil {
				// Empty window: nothing to emit, no slot to free.
				delete(buf, next)
				next++
				continue
			}
			if err := emit(WindowResult{Window: next, Bucket: o.id, Table: o.res.Table, Report: o.res.Report}); err != nil {
				failedAt, failErr = next, err
				abort()
				break
			}
			delete(buf, next)
			next++
			<-sem // emitted: free the slot for the next window
		}
	}
	if failErr != nil {
		return failErr
	}
	return srcErr
}

// tableTimeWindows adapts a pre-loaded table to a span WindowSource:
// rows are stably sorted by timestamp and grouped into fixed time
// buckets of `span` timestamp units, the same partitioning
// dataset.StreamWindows applies in Span mode, so a time-sorted stream
// of the same rows yields identical windows with identical IDs.
type tableTimeWindows struct {
	t       *dataset.Table
	order   []int // row indices in time order
	ts      []int64
	span    int64
	windows int // distinct non-empty buckets
	next    int // offset into order
}

// NewTableTimeWindows builds the fixed time-range window source over
// a loaded trace: a row with timestamp ts belongs to bucket
// ⌊ts/span⌋, which is a function of that row alone — the
// data-independent membership the parallel composition theorem
// requires. Empty buckets are skipped; each emitted window is a
// self-contained table with the bucket number as its ID.
func NewTableTimeWindows(t *dataset.Table, span int64) (WindowSource, error) {
	if span <= 0 {
		return nil, fmt.Errorf("core: window span must be positive, got %d", span)
	}
	tsCol := t.Schema().Index(trace.FieldTS)
	if tsCol < 0 {
		return nil, fmt.Errorf("core: windowed synthesis needs a %q field", trace.FieldTS)
	}
	n := t.NumRows()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	ts := t.Column(tsCol)
	sort.SliceStable(order, func(a, b int) bool { return ts[order[a]] < ts[order[b]] })
	windows := 0
	for i, r := range order {
		if i == 0 || dataset.TimeBucket(ts[r], span) != dataset.TimeBucket(ts[order[i-1]], span) {
			windows++
		}
	}
	return &tableTimeWindows{t: t, order: order, ts: ts, span: span, windows: windows}, nil
}

// Windows reports the bucket count, letting SynthesizeStream size its
// per-window worker split for small runs.
func (s *tableTimeWindows) Windows() int { return s.windows }

// Next returns the next non-empty time bucket, or io.EOF past the
// last.
func (s *tableTimeWindows) Next() (dataset.Window, error) {
	if s.next >= len(s.order) {
		return dataset.Window{}, io.EOF
	}
	lo := s.next
	bucket := dataset.TimeBucket(s.ts[s.order[lo]], s.span)
	hi := lo + 1
	for hi < len(s.order) && dataset.TimeBucket(s.ts[s.order[hi]], s.span) == bucket {
		hi++
	}
	s.next = hi
	part := dataset.NewTable(s.t.Schema(), hi-lo)
	if err := part.AppendRows(s.t, s.order[lo:hi]); err != nil {
		return dataset.Window{}, err
	}
	return dataset.Window{ID: bucket, Table: part}, nil
}
