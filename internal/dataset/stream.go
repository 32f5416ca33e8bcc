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
// Windows are fixed time spans: a record with timestamp ts belongs to
// bucket ⌊ts/Span⌋ — a function of that record alone. Membership is
// data-independent, which is exactly the hypothesis of the parallel
// composition theorem, so releasing every window under (ε, δ) yields a
// record-level (ε, δ) guarantee for the combined release. (Residual
// disclosure: the set of non-empty buckets is visible, since empty
// buckets release nothing.)

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

// Window is one emitted partition of a trace. ID is the window's seed
// identity: consumers derive the per-window pipeline seed from it, so
// it must be a data-independent function of the partition. Span
// windows use the absolute time bucket ⌊ts/Span⌋, a function of each
// record alone.
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

// WindowSplit configures StreamWindows: a row with timestamp ts lands
// in fixed time-range window ⌊ts/Span⌋ (see the package comment for
// the composition argument). Empty buckets are skipped (never
// emitted).
type WindowSplit struct {
	// Field names the timestamp column. The stream must be
	// non-decreasing in it: the windows are time-contiguous disjoint
	// partitions.
	Field string
	// Span is the window width in timestamp units; it must be positive.
	Span int64
	// MaxSpanRows bounds how many rows one window may hold before the
	// stream fails (0 = unbounded). It is a resource guard for
	// bounded-memory consumers — one dense bucket would otherwise
	// materialize an arbitrarily large table. Note the failure is
	// itself data-dependent and visible to the caller; treat a tripped
	// cap as an operator error (pick a smaller span), not as a release.
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
	if split.Span <= 0 {
		return nil, fmt.Errorf("dataset: WindowSplit.Span must be positive, got %d", split.Span)
	}
	if split.MaxSpanRows < 0 {
		return nil, fmt.Errorf("dataset: negative MaxSpanRows %d", split.MaxSpanRows)
	}
	return &StreamWindows{src: src, split: split, schema: schema, tsIdx: tsIdx}, nil
}

// Next emits the next fixed time-range window — the maximal run of
// rows sharing one TimeBucket — as a self-contained table, or io.EOF
// after the last one. Empty buckets are never emitted. The bucket
// number is the window's ID, so a window's seed identity depends only
// on its own records' timestamps, never on how many records other
// windows hold.
func (w *StreamWindows) Next() (Window, error) {
	if w.done {
		return Window{}, io.EOF
	}
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
