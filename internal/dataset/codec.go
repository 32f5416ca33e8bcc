package dataset

import (
	"fmt"
	"io"
)

// CSV decoder seam.
//
// CSVStream decodes through a rowDecoder. There are two
// implementations — the same shape internal/core/kernels uses for its
// kernel/reference pairs:
//
//   - refDecoder (codec_ref.go) wraps encoding/csv. It is the
//     semantics oracle: quoting, blank-line skipping, line accounting,
//     and error shapes are whatever the standard library does.
//   - fastDecoder (codec_fast.go) is a hand-rolled byte scanner that
//     decodes quote-free records without allocating: fields stay
//     []byte views into the read buffer, categorical values intern
//     through a byte-keyed hash probe, and numerics parse through a
//     no-alloc integer fast path. The moment a quote appears it hands
//     the stream to encoding/csv, so the reference defines every edge
//     case the fast path does not take.
//
// NewCSVStream always decodes through the fast decoder. The
// equivalence tests plus FuzzCSVStream hold the two to identical
// decoded batches AND identical error strings — the codec analogue of
// the kernels opt≡ref contract.

// rowDecoder decodes CSV records batch-at-a-time into a table,
// interning categorical values through t's dictionaries. Header is
// available immediately after construction; Bind fixes the
// schema-field→CSV-column mapping before the first DecodeInto. The
// batch granularity keeps the per-record cost inside one devirtualized
// loop — the fast decoder appends parsed values straight into t's
// columns with no intermediate row buffer.
type rowDecoder interface {
	Header() []string
	Bind(schema *Schema, pos []int)
	// DecodeInto appends up to max records to t and returns how many it
	// appended, plus the error that cut the batch short: io.EOF at end
	// of stream, a *fieldError for a value that failed to parse (torn
	// rows and malformed CSV surface as the underlying reader's error).
	// A record that errors is never appended.
	DecodeInto(t *Table, max int) (int, error)
}

// fieldError attributes a value-parse failure to a schema field so
// CSVStream can name it; the decoders' record-level errors (field
// count, quoting) pass through unwrapped.
type fieldError struct {
	field int
	err   error
}

func (e *fieldError) Error() string { return e.err.Error() }
func (e *fieldError) Unwrap() error { return e.err }

// headerPositions maps schema fields to CSV columns. Every schema
// field must appear in the header; extra CSV columns are ignored.
func headerPositions(schema *Schema, header []string) ([]int, error) {
	pos := make([]int, schema.NumFields())
	for i := range pos {
		pos[i] = -1
	}
	for j, name := range header {
		if i := schema.Index(name); i >= 0 {
			pos[i] = j
		}
	}
	for i, p := range pos {
		if p < 0 {
			return nil, fmt.Errorf("dataset: CSV missing field %q", schema.Fields[i].Name)
		}
	}
	return pos, nil
}

// NewReferenceCSVStream is NewCSVStream pinned to the encoding/csv
// reference decoder — the oracle side of differential tests, fuzzing,
// and decode benchmarks.
func NewReferenceCSVStream(r io.Reader, schema *Schema, batchRows int) (*CSVStream, error) {
	return newCSVStream(r, schema, batchRows, newRefRowDecoder)
}

// NewFastCSVStream is NewCSVStream under the name that pairs it with
// NewReferenceCSVStream in differential tests and decode benchmarks.
func NewFastCSVStream(r io.Reader, schema *Schema, batchRows int) (*CSVStream, error) {
	return NewCSVStream(r, schema, batchRows)
}
