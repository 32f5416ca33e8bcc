package dataset

import (
	"errors"
	"fmt"
	"io"
)

// Streaming ingest substrate.
//
// LoadCSV materializes the whole trace before any work starts, which
// caps trace length at one node's RAM. The types here decode a CSV
// trace incrementally instead: CSVStream yields bounded row batches
// against a Schema, and StreamWindows cuts those batches into
// disjoint time-contiguous windows on the fly, so the synthesis
// engine can consume a trace of arbitrary length window by window
// without a full-trace Table ever existing.
//
// Every window table is self-contained: its categorical dictionaries
// are interned from its own rows only. That matters for the privacy
// argument, not just for memory — under parallel composition each
// window's release must be a function of that window's records alone,
// and a dictionary shared across the trace would leak cross-window
// value ordering into every window's binning.
//
// The three partitioning rules differ in the guarantee they support,
// and the distinction is load-bearing for any ledger built on top:
//
//   - Span windows (fixed timestamp ranges): a record with timestamp
//     ts belongs to bucket ⌊ts/Span⌋ — a function of that record
//     alone. Membership is data-independent, which is exactly the
//     hypothesis of the parallel composition theorem, so releasing
//     every window under (ε, δ) yields a record-level (ε, δ) guarantee
//     for the combined release. (Residual disclosure: the set of
//     non-empty buckets is visible, since empty buckets release
//     nothing.)
//   - Count-quantile and MaxRows windows: boundaries sit at row
//     *ranks* (w·n/k, or multiples of MaxRows), so adding or removing
//     one record shifts every later record across window boundaries —
//     membership depends on the rest of the data and parallel
//     composition does NOT apply. Each window's release is still
//     (ε, δ)-DP in isolation, but a record-level guarantee for the
//     whole release must be priced by sequential composition across
//     the windows.

// defaultBatchRows is the CSVStream batch size when the caller passes
// 0: large enough to amortize per-batch overhead, small enough that a
// batch is noise next to any real window.
const defaultBatchRows = 4096

// BatchSource yields successive row batches of one trace. Batches
// share a schema but own their rows and dictionaries; Next returns
// io.EOF after the last batch.
type BatchSource interface {
	Next() (*Table, error)
}

// CSVStream incrementally decodes a CSV trace against a schema,
// yielding row batches of at most batchRows rows. It is the streaming
// counterpart of ReadCSV (which is now a thin wrapper around it) and
// reports the same errors — a missing header field fails at
// construction, a torn or mistyped row fails at the batch that
// contains it, naming the line and field.
//
// Decoding goes through the byte-scanning fast decoder (see codec.go),
// which hands quoted records to the encoding/csv reference. The fast
// decoder and the reference yield identical batches and identical
// errors — that equivalence is tested and fuzzed.
type CSVStream struct {
	schema    *Schema
	dec       rowDecoder
	line      int // 1-based record ordinal of the next record (header = 1)
	batchRows int
	rows      int // rows decoded so far
	done      bool
}

// NewCSVStream reads and validates the CSV header (which must contain
// every schema field; extra columns are ignored) and returns a stream
// positioned at the first record. batchRows <= 0 selects the default.
func NewCSVStream(r io.Reader, schema *Schema, batchRows int) (*CSVStream, error) {
	return newCSVStream(r, schema, batchRows, newFastRowDecoder)
}

func newCSVStream(r io.Reader, schema *Schema, batchRows int, mk func(io.Reader) (rowDecoder, error)) (*CSVStream, error) {
	if batchRows <= 0 {
		batchRows = defaultBatchRows
	}
	dec, err := mk(r)
	if err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	pos, err := headerPositions(schema, dec.Header())
	if err != nil {
		return nil, err
	}
	dec.Bind(schema, pos)
	return &CSVStream{
		schema:    schema,
		dec:       dec,
		line:      2,
		batchRows: batchRows,
	}, nil
}

// Rows returns how many records have been decoded so far.
func (s *CSVStream) Rows() int { return s.rows }

// Next decodes up to batchRows records into a fresh Table (with its
// own dictionaries) and returns it, or io.EOF once the stream is
// exhausted. A decode error poisons the stream: every later call
// returns io.EOF.
func (s *CSVStream) Next() (*Table, error) {
	if s.done {
		return nil, io.EOF
	}
	t := NewTable(s.schema, s.batchRows)
	if err := s.NextInto(t); err != nil {
		return nil, err
	}
	return t, nil
}

// NextInto decodes up to batchRows records and appends them to t —
// the reuse form of Next: a caller that Resets and recycles one table
// decodes with zero allocations per row once t's column capacity and
// dictionaries are warm. It returns io.EOF when the stream was
// already exhausted (nothing appended); on a decode error t may hold
// the rows that preceded the failure, and the stream is poisoned as
// with Next.
func (s *CSVStream) NextInto(t *Table) error {
	if s.done {
		return io.EOF
	}
	n, err := s.dec.DecodeInto(t, s.batchRows)
	s.line += n
	s.rows += n
	if err == nil {
		return nil
	}
	s.done = true
	if err == io.EOF {
		if n == 0 {
			return io.EOF
		}
		return nil
	}
	var fe *fieldError
	if errors.As(err, &fe) {
		return fmt.Errorf("dataset: line %d field %q: %w", s.line, s.schema.Fields[fe.field].Name, fe.err)
	}
	if errors.Is(err, ErrSchemaMismatch) {
		return err
	}
	return fmt.Errorf("dataset: read line %d: %w", s.line, err)
}

// StreamCSV runs fn over every batch of the stream; a batch or fn
// error stops the walk and is returned.
func StreamCSV(r io.Reader, schema *Schema, batchRows int, fn func(batch *Table) error) error {
	s, err := NewCSVStream(r, schema, batchRows)
	if err != nil {
		return err
	}
	for {
		b, err := s.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(b); err != nil {
			return err
		}
	}
}

// Window is one emitted partition of a trace. ID is the window's seed
// identity: consumers derive the per-window pipeline seed from it, so
// it must be a data-independent function of the partition. Span
// windows use the absolute time bucket ⌊ts/Span⌋ (a function of each
// record alone); count and MaxRows windows use the sequential window
// index (their boundaries are data-dependent anyway, see the package
// comment).
type Window struct {
	ID    int64
	Table *Table
}

// TimeBucket maps a timestamp to its span window: ⌊ts/span⌋ with
// floor (not truncation) semantics, so negative timestamps bucket
// consistently. span must be positive.
func TimeBucket(ts, span int64) int64 {
	b := ts / span
	if ts%span != 0 && ts < 0 {
		b--
	}
	return b
}

// WindowSplit configures StreamWindows. Exactly one partitioning rule
// must be set:
//
//   - Span: fixed time-range windows — a row with timestamp ts lands
//     in bucket ⌊ts/Span⌋. Membership is a function of each record
//     alone (data-independent), so the per-window releases compose in
//     parallel; this is the only rule under which a combined release
//     carries a record-level (ε, δ) guarantee at one window's cost.
//     Empty buckets are skipped (never emitted).
//   - Windows + TotalRows: quantile-by-count boundaries — window w
//     holds stream rows [w·n/k, (w+1)·n/k). These are the boundaries
//     SynthesizeWindowed uses on a pre-loaded table, so a time-sorted
//     stream split this way is window-for-window identical to the
//     batch path. Boundaries are data-dependent: see the package
//     comment for what that does to the composition argument.
//   - MaxRows: fixed-size windows of MaxRows rows (last one partial),
//     for streams whose length is unknown up front. Data-dependent
//     boundaries, like Windows.
type WindowSplit struct {
	// Field names the timestamp column. The stream must be
	// non-decreasing in it: the windows are time-contiguous disjoint
	// partitions.
	Field     string
	Windows   int
	TotalRows int
	MaxRows   int
	// Span selects fixed time-range windows of that many timestamp
	// units.
	Span int64
	// MaxSpanRows, in Span mode, bounds how many rows one window may
	// hold before the stream fails (0 = unbounded). It is a resource
	// guard for bounded-memory consumers — one dense bucket would
	// otherwise materialize an arbitrarily large table. Note the
	// failure is itself data-dependent and visible to the caller;
	// treat a tripped cap as an operator error (pick a smaller span),
	// not as a release.
	MaxSpanRows int
}

// StreamWindows cuts a batch stream into time-contiguous windows. It
// holds at most one window plus one batch in memory.
type StreamWindows struct {
	src      BatchSource
	split    WindowSplit
	schema   *Schema
	tsIdx    int
	carry    *Table // batch rows not yet assigned to a window
	carryOff int
	row      int // stream rows consumed so far
	window   int // next window index to emit
	lastTS   int64
	haveTS   bool
	done     bool
}

// NewStreamWindows validates the split against the schema and wraps
// the batch source.
func NewStreamWindows(src BatchSource, schema *Schema, split WindowSplit) (*StreamWindows, error) {
	tsIdx := schema.Index(split.Field)
	if tsIdx < 0 {
		return nil, fmt.Errorf("dataset: stream windows need a %q field", split.Field)
	}
	modes := 0
	for _, set := range []bool{split.Windows > 0, split.MaxRows > 0, split.Span > 0} {
		if set {
			modes++
		}
	}
	if modes != 1 {
		return nil, fmt.Errorf("dataset: set exactly one of WindowSplit.Windows, WindowSplit.MaxRows, and WindowSplit.Span")
	}
	if split.Span < 0 {
		return nil, fmt.Errorf("dataset: negative Span %d", split.Span)
	}
	if split.MaxSpanRows < 0 {
		return nil, fmt.Errorf("dataset: negative MaxSpanRows %d", split.MaxSpanRows)
	}
	if split.MaxSpanRows > 0 && split.Span == 0 {
		return nil, fmt.Errorf("dataset: MaxSpanRows applies only to Span windows")
	}
	byCount := split.Windows > 0
	if byCount && split.TotalRows < 0 {
		return nil, fmt.Errorf("dataset: negative TotalRows %d", split.TotalRows)
	}
	if byCount && split.TotalRows == 0 {
		return nil, fmt.Errorf("dataset: WindowSplit.Windows needs TotalRows (use MaxRows when the stream length is unknown)")
	}
	return &StreamWindows{src: src, split: split, schema: schema, tsIdx: tsIdx}, nil
}

// Windows reports the fixed window count in count-quantile mode, or 0
// when the split is by MaxRows or Span (unknown window count up
// front). Consumers use it to size worker splits for small runs.
func (w *StreamWindows) Windows() int {
	if w.split.Windows > 0 {
		return w.split.Windows
	}
	return 0
}

// Next returns the next window as a self-contained table (empty
// windows are possible in Windows mode when TotalRows < Windows; Span
// mode skips empty buckets entirely), or io.EOF after the last
// window. In Windows mode the stream must hold exactly TotalRows
// rows; a shorter or longer stream is an error.
func (w *StreamWindows) Next() (Window, error) {
	if w.done {
		return Window{}, io.EOF
	}
	if w.split.Span > 0 {
		return w.nextSpan()
	}
	var hi int // stream row index this window ends before
	switch {
	case w.split.Windows > 0:
		if w.window >= w.split.Windows {
			// All windows emitted: the stream must be exhausted too.
			w.done = true
			if err := w.expectEOF(); err != nil {
				return Window{}, err
			}
			return Window{}, io.EOF
		}
		hi = (w.window + 1) * w.split.TotalRows / w.split.Windows
	default:
		hi = w.row + w.split.MaxRows
	}
	out := NewTable(w.schema, hi-w.row)
	for w.row < hi {
		if w.carry == nil || w.carryOff >= w.carry.NumRows() {
			b, err := w.src.Next()
			if err == io.EOF {
				w.done = true
				if w.split.Windows > 0 {
					return Window{}, fmt.Errorf("dataset: stream ended at row %d of the declared %d (window %d)",
						w.row, w.split.TotalRows, w.window)
				}
				if out.NumRows() == 0 {
					return Window{}, io.EOF
				}
				id := int64(w.window)
				w.window++
				return Window{ID: id, Table: out}, nil
			}
			if err != nil {
				w.done = true
				return Window{}, err
			}
			w.carry, w.carryOff = b, 0
		}
		take := w.carry.NumRows() - w.carryOff
		if left := hi - w.row; take > left {
			take = left
		}
		lo := w.carryOff
		if err := w.checkOrder(w.carry, lo, lo+take); err != nil {
			w.done = true
			return Window{}, err
		}
		if err := out.AppendRowRange(w.carry, lo, lo+take); err != nil {
			w.done = true
			return Window{}, err
		}
		w.carryOff += take
		w.row += take
	}
	id := int64(w.window)
	w.window++
	return Window{ID: id, Table: out}, nil
}

// nextSpan emits the next fixed time-range window: the maximal run of
// rows sharing one TimeBucket. The bucket number is the window's ID,
// so a window's seed identity depends only on its own records'
// timestamps, never on how many records other windows hold.
func (w *StreamWindows) nextSpan() (Window, error) {
	var (
		out    *Table
		bucket int64
	)
	for {
		if w.carry == nil || w.carryOff >= w.carry.NumRows() {
			b, err := w.src.Next()
			if err == io.EOF {
				w.done = true
				if out == nil {
					return Window{}, io.EOF
				}
				w.window++
				return Window{ID: bucket, Table: out}, nil
			}
			if err != nil {
				w.done = true
				return Window{}, err
			}
			if b.NumRows() == 0 {
				continue
			}
			w.carry, w.carryOff = b, 0
		}
		col := w.carry.Column(w.tsIdx)
		lo := w.carryOff
		if out == nil {
			bucket = TimeBucket(col[lo], w.split.Span)
			out = NewTable(w.schema, w.carry.NumRows()-lo)
		}
		take := 0
		for lo+take < w.carry.NumRows() && TimeBucket(col[lo+take], w.split.Span) == bucket {
			take++
		}
		if take > 0 {
			if err := w.checkOrder(w.carry, lo, lo+take); err != nil {
				w.done = true
				return Window{}, err
			}
			if lim := w.split.MaxSpanRows; lim > 0 && out.NumRows()+take > lim {
				w.done = true
				return Window{}, fmt.Errorf("dataset: time window %d exceeds the %d-row cap — choose a smaller span", bucket, lim)
			}
			if err := out.AppendRowRange(w.carry, lo, lo+take); err != nil {
				w.done = true
				return Window{}, err
			}
			w.carryOff += take
			w.row += take
		}
		if w.carryOff < w.carry.NumRows() {
			// The next row opens a different bucket: this window is
			// complete. A timestamp regression is caught by checkOrder
			// when that row is consumed into its own window.
			w.window++
			return Window{ID: bucket, Table: out}, nil
		}
	}
}

// checkOrder enforces the non-decreasing-timestamp contract over rows
// [lo, hi) of a batch.
func (w *StreamWindows) checkOrder(b *Table, lo, hi int) error {
	col := b.Column(w.tsIdx)
	for r := lo; r < hi; r++ {
		ts := col[r]
		if w.haveTS && ts < w.lastTS {
			return fmt.Errorf("dataset: stream row %d: timestamp %d after %d — streaming windows need a time-ordered trace (sort the input, or load it whole and use windowed synthesis)",
				w.row+(r-lo)+1, ts, w.lastTS)
		}
		w.lastTS, w.haveTS = ts, true
	}
	return nil
}

// expectEOF verifies no rows remain past the declared TotalRows.
func (w *StreamWindows) expectEOF() error {
	if w.carry != nil && w.carryOff < w.carry.NumRows() {
		return fmt.Errorf("dataset: stream has more rows than the declared %d", w.split.TotalRows)
	}
	b, err := w.src.Next()
	if err == io.EOF {
		return nil
	}
	if err != nil {
		return err
	}
	if b.NumRows() > 0 {
		return fmt.Errorf("dataset: stream has more rows than the declared %d", w.split.TotalRows)
	}
	return nil
}
