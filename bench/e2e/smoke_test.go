package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestWorkloadsSmoke runs every workload against the real daemon at
// tiny scale (3 releases, or 20 windows), untraced and traced, and
// checks that each run emits exactly the metrics BENCHMARK.json
// declares, with the declared units — so the benchmark cannot drift
// from its declaration unnoticed. The follow workload, which runs only
// when named, is held to the same metrics plus its delivery backlog.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs netdpsynd")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	work := t.TempDir()
	bin, err := buildDaemon(root, work)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var run []*workload
	for _, decl := range spec.Workloads {
		w, err := workloadByName(decl.Name)
		if err != nil {
			t.Fatalf("BENCHMARK.json: %v", err)
		}
		run = append(run, w)
	}
	for _, w := range append(run, followWorkload) {
		// A quarter of the input keeps the smoke run short; the metric
		// plumbing does not depend on input size.
		small := *w
		small.rows /= 4
		for _, traced := range []bool{false, true} {
			o := options{work: work, bin: bin, seed: 7, seconds: 1, trace: traced,
				setups: 1, ops: 3, windows: 20}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
				if w.follow {
					want = append(want[:len(want):len(want)], declared{Name: "follow.backlog_max", Unit: "count"})
				}
			}
			res, err := runWorkload(ctx, &small, o)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 3 {
				t.Errorf("%s (traced %v): correct %v, %d of %d failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s (traced %v): %s not emitted", w.name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s (traced %v): %s in %q, BENCHMARK.json declares %q", w.name, traced, d.Name, m.Unit, d.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics emitted, %d declared", w.name, traced, len(res.Metrics), len(want))
			}
			if traced {
				if fi, err := os.Stat(spansPath(work, w.name, o.seed)); err != nil || fi.Size() == 0 {
					t.Errorf("%s: traced run wrote no spans: %v", w.name, err)
				}
			}
		}
	}
}
