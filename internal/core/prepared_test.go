package core

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/netdpsyn/netdpsyn/internal/datagen"
	"github.com/netdpsyn/netdpsyn/internal/dataset"
)

// preparedSource yields one table as window 0 and reports prep as its
// prepared form, as a serving daemon's plain-release source does.
type preparedSource struct {
	t    *dataset.Table
	prep *Prepared
	done bool
}

func (s *preparedSource) Windows() int { return 1 }

func (s *preparedSource) Prepared() *Prepared { return s.prep }

func (s *preparedSource) Next() (dataset.Window, error) {
	if s.done {
		return dataset.Window{}, io.EOF
	}
	s.done = true
	return dataset.Window{ID: 0, Table: s.t}, nil
}

// preparedRelease releases tab through SynthesizeStream from prep and
// returns the CSV bytes.
func preparedRelease(tab *dataset.Table, prep *Prepared, cfg Config) ([]byte, error) {
	var out bytes.Buffer
	err := SynthesizeStream(&preparedSource{t: tab, prep: prep}, cfg, func(wr WindowResult) error {
		return wr.Table.WriteCSV(&out)
	})
	return out.Bytes(), err
}

func preparedTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Epsilon = 1
	cfg.GUM.Iterations = 5
	return cfg
}

// TestPreparedMatchesInline: releases that start from one shared
// Prepared — two goroutines at once, seeds interleaved between them,
// at 1 and 3 workers — are Synthesize's bytes on each of the five
// emulated inputs. They leave the Prepared equal to a twin built
// beside it, and the table whose columns and dictionaries it shares
// equal to a deep copy taken before.
func TestPreparedMatchesInline(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4}
	for _, ds := range datagen.Datasets() {
		tab, err := datagen.Generate(ds, datagen.Config{Rows: 1000, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		cfg := preparedTestConfig()
		want := make(map[uint64][]byte)
		for _, seed := range seeds {
			c := cfg
			c.Seed = seed
			p, err := NewPipeline(c)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Synthesize(tab)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := res.Table.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			want[seed] = buf.Bytes()
		}
		prep, err := Prepare(tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := Prepare(tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := tab.Clone()
		for _, workers := range []int{1, 3} {
			var wg sync.WaitGroup
			errs := make([]error, len(seeds))
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g; i < len(seeds); i += 2 {
						c := cfg
						c.Seed, c.Workers = seeds[i], workers
						got, err := preparedRelease(tab, prep, c)
						switch {
						case err != nil:
							errs[i] = err
						case !bytes.Equal(got, want[seeds[i]]):
							errs[i] = errBytes
						}
					}
				}(g)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("%s workers %d seed %d: prepared release: %v", ds, workers, seeds[i], err)
				}
			}
		}
		if !reflect.DeepEqual(prep, twin) {
			t.Fatalf("%s: the shared Prepared changed under its releases", ds)
		}
		if !reflect.DeepEqual(tab, before) {
			t.Fatalf("%s: the prepared table changed under its releases", ds)
		}
	}
}

var errBytes = errors.New("bytes differ from Synthesize's")

// TestPreparedMismatch: the engine refuses a prepared form that was
// not built from the run's own table under the run's tsdiff and
// first-pass binning settings, rather than release from it.
func TestPreparedMismatch(t *testing.T) {
	tab, err := datagen.Generate(datagen.TON, datagen.Config{Rows: 400, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	other, err := datagen.Generate(datagen.TON, datagen.Config{Rows: 400, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	cfg := preparedTestConfig()
	noTSDiff := cfg
	noTSDiff.DisableTSDiff = true
	wideBins := cfg
	wideBins.Binning.PortBinWidth = 20
	for _, tc := range []struct {
		name     string
		of       *dataset.Table
		prepared Config
	}{
		{"another table", other, cfg},
		{"a copy of the table", tab.Clone(), cfg},
		{"DisableTSDiff", tab, noTSDiff},
		{"first-pass binning", tab, wideBins},
	} {
		prep, err := Prepare(tc.of, tc.prepared)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := preparedRelease(tab, prep, cfg); err == nil || !strings.Contains(err.Error(), "prepared") {
			t.Errorf("%s: release error %v, want a prepared-form mismatch", tc.name, err)
		}
	}
}
