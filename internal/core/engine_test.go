package core

import (
	"errors"
	"sync/atomic"
	"testing"

	"github.com/netdpsyn/netdpsyn/internal/datagen"
	"github.com/netdpsyn/netdpsyn/internal/dataset"
)

func TestParallelForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		eng := newEngine(workers)
		const n = 100
		var hits [n]atomic.Int32
		eng.parallelFor(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestParallelForErrReportsLowestIndex(t *testing.T) {
	eng := newEngine(4)
	errA := errors.New("a")
	errB := errors.New("b")
	err := eng.parallelForErr(10, func(i int) error {
		switch i {
		case 3:
			return errA
		case 7:
			return errB
		}
		return nil
	})
	if err != errA {
		t.Fatalf("want lowest-index error %v, got %v", errA, err)
	}
}

func TestTaskSeedDecorrelates(t *testing.T) {
	seen := map[uint64]bool{}
	for _, stage := range []string{"gum-update", "publish"} {
		for idx := 0; idx < 100; idx++ {
			s := taskSeed(42, stage, idx)
			if seen[s] {
				t.Fatalf("seed collision at stage=%s idx=%d", stage, idx)
			}
			seen[s] = true
		}
	}
	if taskSeed(42, "gum-update", 0) != taskSeed(42, "gum-update", 0) {
		t.Fatal("taskSeed not stable")
	}
	if taskSeed(42, "gum-update", 0) == taskSeed(43, "gum-update", 0) {
		t.Fatal("taskSeed ignores base seed")
	}
}

// tablesIdentical compares two tables cell by cell.
func tablesIdentical(t *testing.T, a, b *dataset.Table) {
	t.Helper()
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", a.NumRows(), a.NumCols(), b.NumRows(), b.NumCols())
	}
	for c := 0; c < a.NumCols(); c++ {
		ca, cb := a.Column(c), b.Column(c)
		for r := range ca {
			if ca[r] != cb[r] {
				t.Fatalf("tables diverge at row %d col %d: %d vs %d", r, c, ca[r], cb[r])
			}
		}
	}
}

// TestPipelineWorkersDeterminism locks in the engine's central
// guarantee: Workers=1 and Workers=4 produce byte-identical
// synthesized tables for the same seed.
func TestPipelineWorkersDeterminism(t *testing.T) {
	raw, err := datagen.Generate(datagen.TON, datagen.Config{Rows: 1500, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	var tables []*dataset.Table
	for _, workers := range []int{1, 4} {
		cfg := fastPipelineConfig()
		cfg.Workers = workers
		p, err := NewPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Synthesize(raw)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, res.Table)
	}
	tablesIdentical(t, tables[0], tables[1])
}

// TestWindowedWorkersDeterminism covers the concurrent-windows path:
// disjoint windows run in parallel yet concatenate identically.
func TestWindowedWorkersDeterminism(t *testing.T) {
	raw, err := datagen.Generate(datagen.UGR16, datagen.Config{Rows: 1200, Seed: 79})
	if err != nil {
		t.Fatal(err)
	}
	span := spanFor(t, raw, 3)
	var tables []*dataset.Table
	for _, workers := range []int{1, 4} {
		cfg := fastPipelineConfig()
		cfg.Workers = workers
		src, err := NewTableTimeWindows(raw, span)
		if err != nil {
			t.Fatal(err)
		}
		var out *dataset.Table
		if err := SynthesizeStream(src, cfg, func(wr WindowResult) error {
			if out == nil {
				out = wr.Table
				return nil
			}
			return out.AppendRowRange(wr.Table, 0, wr.Table.NumRows())
		}); err != nil {
			t.Fatal(err)
		}
		tables = append(tables, out)
	}
	tablesIdentical(t, tables[0], tables[1])
}

// TestStageTimingsReported checks the wall/busy split lands in the
// report for every stage.
func TestStageTimingsReported(t *testing.T) {
	raw, err := datagen.Generate(datagen.TON, datagen.Config{Rows: 800, Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastPipelineConfig()
	cfg.Workers = 2
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Synthesize(raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range synthStages {
		st, ok := res.Report.Stages[s.name]
		if !ok {
			t.Errorf("stage %q missing from Stages", s.name)
			continue
		}
		if st.Wall <= 0 || st.Busy <= 0 {
			t.Errorf("stage %q timing not positive: %+v", s.name, st)
		}
		if res.Report.Durations[s.name] != st.Wall {
			t.Errorf("stage %q: Durations %v != Stages.Wall %v", s.name, res.Report.Durations[s.name], st.Wall)
		}
	}
}
