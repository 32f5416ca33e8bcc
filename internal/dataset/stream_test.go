package dataset

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

func streamSchema() *Schema {
	return MustSchema(
		Field{Name: "srcip", Kind: KindIP},
		Field{Name: "ts", Kind: KindTimestamp},
		Field{Name: "byt", Kind: KindNumeric},
		Field{Name: "proto", Kind: KindCategorical},
	)
}

// streamCSVBody renders n rows with non-decreasing timestamps and a
// proto value that first appears mid-stream (so per-window
// dictionaries genuinely differ from a whole-trace dictionary).
func streamCSVBody(n int) string {
	var b strings.Builder
	b.WriteString("srcip,ts,byt,proto\n")
	for i := 0; i < n; i++ {
		proto := "TCP"
		if i%3 == 2 {
			proto = "UDP"
		}
		fmt.Fprintf(&b, "10.0.0.%d,%d,%d,%s\n", i%250, 1000+i, 40+i, proto)
	}
	return b.String()
}

func TestCSVStreamBatches(t *testing.T) {
	s, err := NewCSVStream(strings.NewReader(streamCSVBody(10)), streamSchema(), 4)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	var total int
	for {
		b, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, b.NumRows())
		total += b.NumRows()
	}
	if total != 10 || len(sizes) != 3 || sizes[0] != 4 || sizes[2] != 2 {
		t.Fatalf("batches = %v (total %d)", sizes, total)
	}
	if s.Rows() != 10 {
		t.Fatalf("Rows() = %d", s.Rows())
	}
	// Poisoned after EOF: stays EOF.
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("post-EOF Next: %v", err)
	}
}

func TestCSVStreamMatchesReadCSV(t *testing.T) {
	body := streamCSVBody(23)
	whole, err := ReadCSV(strings.NewReader(body), streamSchema())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewCSVStream(strings.NewReader(body), streamSchema(), 5)
	if err != nil {
		t.Fatal(err)
	}
	acc := NewTable(streamSchema(), 0)
	for {
		b, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := acc.AppendRowRange(b, 0, b.NumRows()); err != nil {
			t.Fatal(err)
		}
	}
	if acc.NumRows() != whole.NumRows() {
		t.Fatalf("rows %d vs %d", acc.NumRows(), whole.NumRows())
	}
	for r := 0; r < whole.NumRows(); r++ {
		for c := 0; c < whole.NumCols(); c++ {
			if whole.Schema().Fields[c].Kind == KindCategorical {
				if whole.CatValue(c, whole.Value(r, c)) != acc.CatValue(c, acc.Value(r, c)) {
					t.Fatalf("row %d col %d categorical mismatch", r, c)
				}
			} else if whole.Value(r, c) != acc.Value(r, c) {
				t.Fatalf("row %d col %d: %d vs %d", r, c, whole.Value(r, c), acc.Value(r, c))
			}
		}
	}
}

func TestCSVStreamMissingField(t *testing.T) {
	_, err := NewCSVStream(strings.NewReader("srcip,ts,byt\n1.2.3.4,1,2\n"), streamSchema(), 0)
	if err == nil || !strings.Contains(err.Error(), `missing field "proto"`) {
		t.Fatalf("err = %v", err)
	}
}

func TestCSVStreamEmptyInput(t *testing.T) {
	if _, err := NewCSVStream(strings.NewReader(""), streamSchema(), 0); err == nil {
		t.Fatal("empty input must fail at the header")
	}
}

// TestCSVStreamTornRow covers a row that goes bad mid-stream, after
// earlier batches decoded fine: the error names the line and the
// stream is poisoned.
func TestCSVStreamTornRow(t *testing.T) {
	body := streamCSVBody(6) + "10.0.0.1,1010\n" // short row at line 8
	s, err := NewCSVStream(strings.NewReader(body), streamSchema(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); err != nil { // rows 1-4 decode
		t.Fatal(err)
	}
	_, err = s.Next()
	if err == nil || !strings.Contains(err.Error(), "line 8") {
		t.Fatalf("torn row err = %v", err)
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("after torn row: %v", err)
	}
}

// TestCSVStreamSchemaMismatchAtRowN mirrors the LoadCSV error-path
// suite for a value of the wrong type deep in the stream.
func TestCSVStreamSchemaMismatchAtRowN(t *testing.T) {
	body := streamCSVBody(5) + "not-an-ip,1010,5,TCP\n" // line 7
	s, err := NewCSVStream(strings.NewReader(body), streamSchema(), 3)
	if err != nil {
		t.Fatal(err)
	}
	var last error
	for {
		_, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			last = err
			break
		}
	}
	if last == nil || !strings.Contains(last.Error(), `line 7 field "srcip"`) {
		t.Fatalf("err = %v", last)
	}
}

func windowed(t *testing.T, src BatchSource, schema *Schema, split WindowSplit) []Window {
	t.Helper()
	w, err := NewStreamWindows(src, schema, split)
	if err != nil {
		t.Fatal(err)
	}
	var out []Window
	for {
		win, err := w.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, win)
	}
}

func TestStreamWindowsOutOfOrderTimestamp(t *testing.T) {
	body := "srcip,ts,byt,proto\n" +
		"10.0.0.1,1005,4,TCP\n" +
		"10.0.0.2,1001,4,TCP\n"
	s, _ := NewCSVStream(strings.NewReader(body), streamSchema(), 0)
	w, err := NewStreamWindows(s, streamSchema(), WindowSplit{Field: "ts", Span: 1000})
	if err != nil {
		t.Fatal(err)
	}
	_, err = w.Next()
	if err == nil || !strings.Contains(err.Error(), "time-ordered") {
		t.Fatalf("out-of-order err = %v", err)
	}
}

func TestStreamWindowsBadSplit(t *testing.T) {
	s, _ := NewCSVStream(strings.NewReader(streamCSVBody(2)), streamSchema(), 0)
	cases := []WindowSplit{
		{Field: "nope", Span: 4},
		{Field: "ts"}, // no span
		{Field: "ts", Span: -1},
		{Field: "ts", Span: 4, MaxSpanRows: -1},
	}
	for i, split := range cases {
		if _, err := NewStreamWindows(s, streamSchema(), split); err == nil {
			t.Errorf("case %d: split %+v must fail", i, split)
		}
	}
}

// TestStreamWindowsSpan covers fixed time-range windows: rows land
// in ⌊ts/span⌋ buckets regardless of batch boundaries, every window's
// ID is its absolute bucket number (the data-independent seed
// identity the parallel composition argument needs), and every window
// carries its own categorical dictionaries.
func TestStreamWindowsSpan(t *testing.T) {
	// ts runs 1000..1009; span 4 ⇒ buckets 250 (1000–1003), 251
	// (1004–1007), 252 (1008–1009).
	s, err := NewCSVStream(strings.NewReader(streamCSVBody(10)), streamSchema(), 3)
	if err != nil {
		t.Fatal(err)
	}
	wins := windowed(t, s, streamSchema(), WindowSplit{Field: "ts", Span: 4})
	wantRows := []int{4, 4, 2}
	wantIDs := []int64{250, 251, 252}
	if len(wins) != len(wantRows) {
		t.Fatalf("windows = %d, want %d", len(wins), len(wantRows))
	}
	next := int64(1000)
	for i, w := range wins {
		if w.ID != wantIDs[i] {
			t.Errorf("window %d ID = %d, want %d", i, w.ID, wantIDs[i])
		}
		if w.Table.NumRows() != wantRows[i] {
			t.Errorf("window %d rows = %d, want %d", i, w.Table.NumRows(), wantRows[i])
		}
		for _, ts := range w.Table.ColumnByName("ts") {
			if ts != next {
				t.Fatalf("window %d: ts %d, want %d", i, ts, next)
			}
			next++
		}
		// Self-contained dictionaries: codes valid within the window.
		pc := w.Table.Schema().Index("proto")
		for r := 0; r < w.Table.NumRows(); r++ {
			if w.Table.CatValue(pc, w.Table.Value(r, pc)) == "" {
				t.Fatalf("window %d row %d: dangling categorical code", i, r)
			}
		}
	}
}

// TestStreamWindowsEmptyWindows: a gap in time leaves its buckets
// unemitted — no zero-row window ever reaches the consumer, and the
// IDs jump across the gap.
func TestStreamWindowsEmptyWindows(t *testing.T) {
	body := "srcip,ts,byt,proto\n" +
		"10.0.0.1,1000,4,TCP\n" +
		"10.0.0.2,1001,4,TCP\n" +
		"10.0.0.3,9000,4,UDP\n"
	s, _ := NewCSVStream(strings.NewReader(body), streamSchema(), 0)
	wins := windowed(t, s, streamSchema(), WindowSplit{Field: "ts", Span: 4})
	if len(wins) != 2 || wins[0].ID != 250 || wins[1].ID != 2250 ||
		wins[0].Table.NumRows() != 2 || wins[1].Table.NumRows() != 1 {
		t.Fatalf("gapped windows = %+v", wins)
	}
}

// TestTimeBucket pins the floor semantics, including negative
// timestamps.
func TestTimeBucket(t *testing.T) {
	cases := []struct{ ts, span, want int64 }{
		{0, 4, 0}, {3, 4, 0}, {4, 4, 1}, {7, 4, 1},
		{-1, 4, -1}, {-4, 4, -1}, {-5, 4, -2},
	}
	for _, tc := range cases {
		if got := TimeBucket(tc.ts, tc.span); got != tc.want {
			t.Errorf("TimeBucket(%d, %d) = %d, want %d", tc.ts, tc.span, got, tc.want)
		}
	}
}

// TestStreamWindowsSpanRowCap: the MaxSpanRows resource guard fails
// the stream when one bucket is denser than the bound, instead of
// materializing it.
func TestStreamWindowsSpanRowCap(t *testing.T) {
	s, _ := NewCSVStream(strings.NewReader(streamCSVBody(10)), streamSchema(), 3)
	w, err := NewStreamWindows(s, streamSchema(), WindowSplit{Field: "ts", Span: 1000, MaxSpanRows: 6})
	if err != nil {
		t.Fatal(err)
	}
	var last error
	for last == nil {
		_, last = w.Next()
	}
	if last == io.EOF || !strings.Contains(last.Error(), "row cap") {
		t.Fatalf("cap err = %v", last)
	}
	// Under the cap, the same stream passes.
	s, _ = NewCSVStream(strings.NewReader(streamCSVBody(10)), streamSchema(), 3)
	wins := windowed(t, s, streamSchema(), WindowSplit{Field: "ts", Span: 1000, MaxSpanRows: 10})
	if len(wins) != 1 || wins[0].Table.NumRows() != 10 {
		t.Fatalf("windows = %+v", wins)
	}
}
