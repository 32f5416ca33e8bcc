package core

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"github.com/netdpsyn/netdpsyn/internal/datagen"
	"github.com/netdpsyn/netdpsyn/internal/dataset"
	"github.com/netdpsyn/netdpsyn/internal/trace"
)

// sliceBatches feeds pre-cut batches as a BatchSource, emulating a
// CSV stream over an in-memory table.
type sliceBatches struct {
	batches []*dataset.Table
	next    int
}

func (s *sliceBatches) Next() (*dataset.Table, error) {
	if s.next >= len(s.batches) {
		return nil, io.EOF
	}
	b := s.batches[s.next]
	s.next++
	return b, nil
}

// batchesOf cuts a table into row batches of at most n rows, each a
// self-contained table (as a CSV decoder would produce).
func batchesOf(t *testing.T, tab *dataset.Table, n int) *sliceBatches {
	t.Helper()
	var out []*dataset.Table
	for lo := 0; lo < tab.NumRows(); lo += n {
		hi := lo + n
		if hi > tab.NumRows() {
			hi = tab.NumRows()
		}
		b := dataset.NewTable(tab.Schema(), hi-lo)
		if err := b.AppendRowRange(tab, lo, hi); err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return &sliceBatches{batches: out}
}

// spanFor returns a time span cutting tab into exactly n non-empty
// buckets. Emulated timestamps start near 0, so a span just over
// last/n covers buckets 0..n-1; the test fails if one of them is empty.
func spanFor(t *testing.T, tab *dataset.Table, n int) int64 {
	t.Helper()
	ts := tab.Column(tab.Schema().Index(trace.FieldTS))
	var last int64
	for _, v := range ts {
		last = max(last, v)
	}
	span := last/int64(n) + 1
	buckets := map[int64]bool{}
	for _, v := range ts {
		buckets[dataset.TimeBucket(v, span)] = true
	}
	if len(buckets) != n {
		t.Fatalf("span %d cuts %d buckets, want %d", span, len(buckets), n)
	}
	return span
}

// TestTimeWindowEquivalence: fixed time-span windows over a
// pre-loaded table and over a batch stream of the same rows produce
// identical partitions with identical bucket IDs, hence byte-identical
// synthesis.
func TestTimeWindowEquivalence(t *testing.T) {
	raw, err := datagen.Generate(datagen.UGR16, datagen.Config{Rows: 1100, Seed: 163})
	if err != nil {
		t.Fatal(err)
	}
	sorted := raw.SortBy(raw.Schema().Index(trace.FieldTS))
	ts := sorted.Column(sorted.Schema().Index(trace.FieldTS))
	span := (ts[len(ts)-1]-ts[0])/5 + 1 // a handful of buckets
	cfg := fastPipelineConfig()

	run := func(src WindowSource) (tables []*dataset.Table, ids []int) {
		t.Helper()
		err := SynthesizeStream(src, cfg, func(wr WindowResult) error {
			tables = append(tables, wr.Table)
			ids = append(ids, wr.Window)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return tables, ids
	}

	tsrc, err := NewTableTimeWindows(sorted, span)
	if err != nil {
		t.Fatal(err)
	}
	batchTabs, batchIDs := run(tsrc)

	ssrc, err := dataset.NewStreamWindows(batchesOf(t, sorted, 217), sorted.Schema(),
		dataset.WindowSplit{Field: trace.FieldTS, Span: span})
	if err != nil {
		t.Fatal(err)
	}
	streamTabs, streamIDs := run(ssrc)

	if len(batchTabs) < 2 {
		t.Fatalf("want ≥ 2 non-empty time windows, got %d", len(batchTabs))
	}
	if len(batchTabs) != len(streamTabs) {
		t.Fatalf("windows: %d batch vs %d stream", len(batchTabs), len(streamTabs))
	}
	for i := range batchTabs {
		if batchIDs[i] != streamIDs[i] {
			t.Errorf("window %d emission index: %d vs %d", i, batchIDs[i], streamIDs[i])
		}
	}
	a, b := batchTabs[0], streamTabs[0]
	for i := 1; i < len(batchTabs); i++ {
		if err := a.AppendRowRange(batchTabs[i], 0, batchTabs[i].NumRows()); err != nil {
			t.Fatal(err)
		}
		if err := b.AppendRowRange(streamTabs[i], 0, streamTabs[i].NumRows()); err != nil {
			t.Fatal(err)
		}
	}
	tablesIdentical(t, a, b)
}

// TestSynthesizeStreamLiveFeed drives the continuous-ingest seam: a
// WindowFeed receives windows over time while SynthesizeStream is
// already running, each window synthesizes as it lands (the emitter
// observes window i before window i+1 is even published), and the
// combined output is byte-identical to the batch time-span path —
// the live source shares bucket IDs (hence seeds) with
// NewTableTimeWindows.
func TestSynthesizeStreamLiveFeed(t *testing.T) {
	raw, err := datagen.Generate(datagen.UGR16, datagen.Config{Rows: 900, Seed: 167})
	if err != nil {
		t.Fatal(err)
	}
	sorted := raw.SortBy(raw.Schema().Index(trace.FieldTS))
	ts := sorted.Column(sorted.Schema().Index(trace.FieldTS))
	span := (ts[len(ts)-1]-ts[0])/4 + 1
	cfg := fastPipelineConfig()

	// Batch reference over the same partitions.
	bsrc, err := NewTableTimeWindows(sorted, span)
	if err != nil {
		t.Fatal(err)
	}
	var batchTabs []*dataset.Table
	if err := SynthesizeStream(bsrc, cfg, func(wr WindowResult) error {
		batchTabs = append(batchTabs, wr.Table)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(batchTabs) < 2 {
		t.Fatalf("want ≥ 2 buckets, got %d", len(batchTabs))
	}

	// Cut the sorted trace into its buckets up front so the test can
	// publish them one at a time.
	type cut struct {
		bucket int64
		tab    *dataset.Table
	}
	var cuts []cut
	for lo := 0; lo < sorted.NumRows(); {
		b := dataset.TimeBucket(ts[lo], span)
		hi := lo
		for hi < sorted.NumRows() && dataset.TimeBucket(ts[hi], span) == b {
			hi++
		}
		part := dataset.NewTable(sorted.Schema(), hi-lo)
		if err := part.AppendRowRange(sorted, lo, hi); err != nil {
			t.Fatal(err)
		}
		cuts = append(cuts, cut{bucket: b, tab: part})
		lo = hi
	}

	feed, err := dataset.NewWindowFeed(sorted.Schema(), trace.FieldTS, span)
	if err != nil {
		t.Fatal(err)
	}
	// Publish window i+1 only after window i's synthesis was emitted:
	// this proves the engine synthesizes each arrival without waiting
	// for the stream to end.
	emitted := make(chan int)
	go func() {
		for i, c := range cuts {
			if err := feed.Publish(c.bucket, c.tab); err != nil {
				t.Errorf("publish %d: %v", c.bucket, err)
				feed.Close()
				return
			}
			if <-emitted != i {
				t.Error("emission out of step with publication")
			}
		}
		feed.Close()
	}()
	var liveTabs []*dataset.Table
	err = SynthesizeStream(feed.Live(), cfg, func(wr WindowResult) error {
		liveTabs = append(liveTabs, wr.Table)
		emitted <- wr.Window
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(liveTabs) != len(batchTabs) {
		t.Fatalf("windows: %d live vs %d batch", len(liveTabs), len(batchTabs))
	}
	for i := range liveTabs {
		tablesIdentical(t, batchTabs[i], liveTabs[i])
	}
}

// TestSynthesizeStreamLiveAbort: an emit failure while the live
// source is parked in Next must stop the source and return — a
// regression here deadlocks the stream (and leaks its producer), so
// this is a liveness check.
func TestSynthesizeStreamLiveAbort(t *testing.T) {
	raw, err := datagen.Generate(datagen.UGR16, datagen.Config{Rows: 300, Seed: 173})
	if err != nil {
		t.Fatal(err)
	}
	sorted := raw.SortBy(raw.Schema().Index(trace.FieldTS))
	ts := sorted.Column(sorted.Schema().Index(trace.FieldTS))
	span := ts[len(ts)-1] - ts[0] + 1
	feed, err := dataset.NewWindowFeed(sorted.Schema(), trace.FieldTS, span)
	if err != nil {
		t.Fatal(err)
	}
	// Publish the first bucket's rows (the absolute bucket grid need
	// not align with the trace start, so cut at the bucket boundary).
	bucket := dataset.TimeBucket(ts[0], span)
	hi := 0
	for hi < len(ts) && dataset.TimeBucket(ts[hi], span) == bucket {
		hi++
	}
	first := dataset.NewTable(sorted.Schema(), hi)
	if err := first.AppendRowRange(sorted, 0, hi); err != nil {
		t.Fatal(err)
	}
	if err := feed.Publish(bucket, first); err != nil {
		t.Fatal(err)
	}
	// The feed stays open: after the one window is emitted the
	// producer blocks in Next, and the emit error must unblock it.
	done := make(chan error, 1)
	go func() {
		done <- SynthesizeStream(feed.Live(), fastPipelineConfig(), func(WindowResult) error {
			return fmt.Errorf("downstream gone")
		})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "downstream gone") {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("aborted live stream never returned")
	}
}

// TestSynthesizeStreamEmitsInOrder checks ordered delivery even with
// several windows in flight.
func TestSynthesizeStreamEmitsInOrder(t *testing.T) {
	raw, err := datagen.Generate(datagen.UGR16, datagen.Config{Rows: 1200, Seed: 137})
	if err != nil {
		t.Fatal(err)
	}
	sorted := raw.SortBy(raw.Schema().Index(trace.FieldTS))
	src, err := dataset.NewStreamWindows(batchesOf(t, sorted, 256), sorted.Schema(),
		dataset.WindowSplit{Field: trace.FieldTS, Span: spanFor(t, sorted, 6)})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastPipelineConfig()
	cfg.Workers = 4
	want := 0
	err = SynthesizeStream(src, cfg, func(wr WindowResult) error {
		if wr.Window != want {
			return fmt.Errorf("window %d emitted, want %d", wr.Window, want)
		}
		want++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want != 6 {
		t.Fatalf("emitted %d windows", want)
	}
}

// sliceWindows is a WindowSource over pre-built windows.
type sliceWindows struct {
	wins []dataset.Window
	next int
}

func (s *sliceWindows) Next() (dataset.Window, error) {
	if s.next >= len(s.wins) {
		return dataset.Window{}, io.EOF
	}
	w := s.wins[s.next]
	s.next++
	return w, nil
}

// TestSynthesizeStreamEmptyWindows covers a source that yields empty
// windows (WindowSource allows them, though no built-in source does):
// they consume emission indices but must neither stall the in-order
// emitter nor occupy concurrency slots, and they leave every other
// window's output untouched. (A regression here deadlocks, so the
// test doubles as a liveness check.)
func TestSynthesizeStreamEmptyWindows(t *testing.T) {
	raw, err := datagen.Generate(datagen.UGR16, datagen.Config{Rows: 5, Seed: 157})
	if err != nil {
		t.Fatal(err)
	}
	sorted := raw.SortBy(raw.Schema().Index(trace.FieldTS))
	cfg := fastPipelineConfig()
	cfg.Workers = 2

	// 16 windows, 11 of them empty (alternately nil and zero-row
	// tables); each of the 5 rows is its own window at 1, 4, 7, 10, 13.
	var all, full []dataset.Window
	for w := 0; w < 16; w++ {
		win := dataset.Window{ID: int64(w)}
		switch {
		case w%3 == 1 && w/3 < sorted.NumRows():
			win.Table = dataset.NewTable(sorted.Schema(), 1)
			if err := win.Table.AppendRowRange(sorted, w/3, w/3+1); err != nil {
				t.Fatal(err)
			}
			full = append(full, win)
		case w%2 == 1:
			win.Table = dataset.NewTable(sorted.Schema(), 0)
		}
		all = append(all, win)
	}
	run := func(wins []dataset.Window) []WindowResult {
		t.Helper()
		var out []WindowResult
		if err := SynthesizeStream(&sliceWindows{wins: wins}, cfg, func(wr WindowResult) error {
			out = append(out, wr)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	gapped, dense := run(all), run(full)
	if len(gapped) != 5 || len(dense) != 5 {
		t.Fatalf("emitted %d windows with empties, %d without, want 5", len(gapped), len(dense))
	}
	for i, wr := range gapped {
		if wr.Window != 3*i+1 || wr.Bucket != int64(3*i+1) {
			t.Errorf("emission %d: window %d bucket %d, want %d", i, wr.Window, wr.Bucket, 3*i+1)
		}
		tablesIdentical(t, dense[i].Table, wr.Table)
	}
}

type failingSource struct {
	yielded bool
	tab     *dataset.Table
}

func (f *failingSource) Next() (dataset.Window, error) {
	if f.yielded {
		return dataset.Window{}, fmt.Errorf("stream torn mid-trace")
	}
	f.yielded = true
	return dataset.Window{Table: f.tab}, nil
}

// emptyWindows is a WindowSource that is immediately exhausted.
type emptyWindows struct{}

func (emptyWindows) Next() (dataset.Window, error) { return dataset.Window{}, io.EOF }

func TestSynthesizeStreamSourceError(t *testing.T) {
	raw, err := datagen.Generate(datagen.UGR16, datagen.Config{Rows: 400, Seed: 139})
	if err != nil {
		t.Fatal(err)
	}
	err = SynthesizeStream(&failingSource{tab: raw}, fastPipelineConfig(), func(WindowResult) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "torn mid-trace") {
		t.Fatalf("err = %v", err)
	}
}

func TestSynthesizeStreamEmitError(t *testing.T) {
	raw, err := datagen.Generate(datagen.UGR16, datagen.Config{Rows: 900, Seed: 149})
	if err != nil {
		t.Fatal(err)
	}
	sorted := raw.SortBy(raw.Schema().Index(trace.FieldTS))
	src, err := dataset.NewStreamWindows(batchesOf(t, sorted, 300), sorted.Schema(),
		dataset.WindowSplit{Field: trace.FieldTS, Span: spanFor(t, sorted, 3)})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	err = SynthesizeStream(src, fastPipelineConfig(), func(wr WindowResult) error {
		calls++
		return fmt.Errorf("sink full")
	})
	if err == nil || !strings.Contains(err.Error(), "sink full") {
		t.Fatalf("err = %v", err)
	}
	if calls != 1 {
		t.Fatalf("emit called %d times after failing", calls)
	}
}

// TestSynthesizeStreamWindowError propagates a failing window with
// its index.
func TestSynthesizeStreamWindowError(t *testing.T) {
	// A window whose rows are empty of signal still synthesizes; to
	// force a pipeline error, hand the stream a window with zero
	// usable schema — simplest is a one-row window with iterations
	// misconfigured at the pipeline level.
	raw, err := datagen.Generate(datagen.UGR16, datagen.Config{Rows: 200, Seed: 151})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastPipelineConfig()
	cfg.GUM.Iterations = 0 // NewPipeline inside the stream must reject this
	err = SynthesizeStream(emptyWindows{}, cfg, func(WindowResult) error { return nil })
	if err != nil {
		t.Fatalf("empty source must be a clean EOF, got %v", err)
	}
	sorted := raw.SortBy(raw.Schema().Index(trace.FieldTS))
	src, err := dataset.NewStreamWindows(batchesOf(t, sorted, 100),
		sorted.Schema(), dataset.WindowSplit{Field: trace.FieldTS, Span: spanFor(t, sorted, 2)})
	if err != nil {
		t.Fatal(err)
	}
	err = SynthesizeStream(src, cfg, func(WindowResult) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "iterations") {
		t.Fatalf("err = %v", err)
	}
}
