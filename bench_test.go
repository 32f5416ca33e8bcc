// Benchmark harness: one benchmark per table and figure of the
// paper's evaluation (see DESIGN.md for the experiment index), plus
// ablation benches for the design choices NetDPSyn adds.
//
// Run everything and capture the rendered tables:
//
//	go test -bench=. -benchmem . | tee bench_output.txt
//
// The benches share a memoized Runner so each synthesis happens once;
// grids are emitted through b.Log so the output file records the
// paper-style tables alongside the timings. Scales are reduced (see
// experiments.DefaultScale); EXPERIMENTS.md records paper-vs-measured
// per artifact.
package netdpsyn_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	netdpsyn "github.com/netdpsyn/netdpsyn"
	"github.com/netdpsyn/netdpsyn/internal/datagen"
	"github.com/netdpsyn/netdpsyn/internal/dataset"
	"github.com/netdpsyn/netdpsyn/internal/experiments"
	"github.com/netdpsyn/netdpsyn/internal/serve"
)

var (
	benchOnce   sync.Once
	benchRunner *experiments.Runner
)

// runner returns the shared, memoized experiment runner.
func runner() *experiments.Runner {
	benchOnce.Do(func() {
		benchRunner = experiments.NewRunner(experiments.DefaultScale())
	})
	return benchRunner
}

func BenchmarkFigure2Sketching(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		grids, err := experiments.Figure2(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, ds := range datagen.PacketDatasets() {
				b.Logf("\n%s", grids[ds])
			}
			b.ReportMetric(grids[datagen.DC].Get("CMS", "NetDPSyn"), "DC-CMS-NetDPSyn")
			b.ReportMetric(grids[datagen.DC].Get("CMS", "NetShare"), "DC-CMS-NetShare")
		}
	}
}

func BenchmarkFigure3Classification(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, ds := range datagen.FlowDatasets() {
				b.Logf("\n%s", res.Accuracy[ds])
			}
			g := res.Accuracy[datagen.TON]
			b.ReportMetric(g.Get("DT", "Real"), "TON-DT-Real")
			b.ReportMetric(g.Get("DT", "NetDPSyn"), "TON-DT-NetDPSyn")
			b.ReportMetric(g.Get("DT", "NetShare"), "TON-DT-NetShare")
		}
	}
}

func BenchmarkTable1RankCorrelation(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.RankCorr)
			b.ReportMetric(res.RankCorr.Get("TON", "NetDPSyn"), "TON-NetDPSyn-rho")
		}
	}
}

func BenchmarkFigure4NetML(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, ds := range datagen.PacketDatasets() {
				b.Logf("\n%s", res.RelErr[ds])
			}
		}
	}
}

func BenchmarkTable2NetMLRank(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.RankCorr)
		}
	}
}

func BenchmarkTable3RunningTime(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		g, err := experiments.Table3(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", g)
			b.ReportMetric(g.Get("TON", "NetDPSyn"), "TON-NetDPSyn-sec")
			b.ReportMetric(g.Get("TON", "PrivMRF"), "TON-PrivMRF-sec")
		}
	}
}

// BenchmarkTable3WorkersSweep complements Table 3 with the staged
// engine's worker sweep: NetDPSyn synthesis across all five datasets
// at 1, 2, and 4 workers. The synthesized tables are byte-identical
// across the sweep (the engine's determinism contract); only the
// wall clock changes. Fresh runners per iteration defeat the
// memoization that Table 3 relies on.
func BenchmarkTable3WorkersSweep(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			sc := experiments.DefaultScale()
			sc.Workers = w
			for i := 0; i < b.N; i++ {
				r := experiments.NewRunner(sc)
				for _, ds := range datagen.Datasets() {
					if _, err := r.Syn("NetDPSyn", ds); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkStageTimings feeds the staged engine's per-stage wall/busy
// split (Report.Stages, surfaced as Result.Stages on the public API)
// into the benchmark output as metrics, so CI runs can track per-stage
// regressions — GUM planning should dominate (the paper's §3.1 finding;
// 55–75% of a synthesis on the end-to-end benchmark's inputs), and a
// busy/wall ratio near the worker count means a stage actually
// parallelized. Metrics are `<stage>-wall-ms` and `<stage>-busy-ms`,
// averaged over b.N runs.
//
// With BENCH_STAGE_JSON=<path> in the environment, the same metrics
// are also written to <path> as BENCH_stage_timings.json — the bench
// trajectory artifact CI uploads on every push and compares against
// the committed baseline with `go run ./cmd/benchtraj` (soft warn on
// regression). The file embeds the equivalent Go benchmark output
// lines under "benchfmt", so `jq -r '.benchfmt[]'` feeds benchstat.
func BenchmarkStageTimings(b *testing.B) {
	raw, err := datagen.Generate(datagen.TON, datagen.Config{Rows: 2000, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	syn, err := netdpsyn.New(netdpsyn.Config{Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	wall := make(map[string]time.Duration)
	busy := make(map[string]time.Duration)
	b.ReportAllocs()
	mem := newMemMeter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := syn.Synthesize(raw)
		if err != nil {
			b.Fatal(err)
		}
		for name, st := range res.Stages {
			wall[name] += st.Wall
			busy[name] += st.Busy
		}
	}
	b.StopTimer()
	elapsed := b.Elapsed()
	ms := func(d time.Duration) float64 {
		return float64(d.Microseconds()) / 1e3 / float64(b.N)
	}
	for name := range wall {
		b.ReportMetric(ms(wall[name]), name+"-wall-ms")
		b.ReportMetric(ms(busy[name]), name+"-busy-ms")
	}
	if path := os.Getenv("BENCH_STAGE_JSON"); path != "" {
		if err := writeStageTimingsJSON(path, "BenchmarkStageTimings", b.N, elapsed, wall, busy, mem.perOp(b.N)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowedThroughput tracks the streaming/windowed path's
// cost alongside the per-stage trajectory: a 4-bucket time-span
// synthesis over a time-sorted trace through the same incremental
// engine that SynthesizeStream and the netdpsynd windowed job kind
// use. Reports
// input rows/sec; with BENCH_STAGE_JSON set, merges a "windowed"
// pseudo-stage (per-op wall, summed per-window busy) into the same
// BENCH_stage_timings.json that BenchmarkStageTimings emits, so
// cmd/benchtraj tracks both against one committed baseline.
func BenchmarkWindowedThroughput(b *testing.B) {
	raw, err := datagen.Generate(datagen.TON, datagen.Config{Rows: 4000, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	raw = raw.SortBy(raw.Schema().Index(netdpsyn.FieldTS))
	syn, err := netdpsyn.New(netdpsyn.Config{Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	// The emulated timestamps start near 0, so a span just over a
	// quarter of the last one cuts the trace into buckets 0..3.
	const windows = 4
	ts := raw.ColumnByName(netdpsyn.FieldTS)
	span := ts[len(ts)-1]/windows + 1
	var busy time.Duration
	b.ReportAllocs()
	mem := newMemMeter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := syn.SynthesizeTimeWindows(raw, span, func(wr netdpsyn.WindowResult) error {
			n++
			for _, st := range wr.Stages {
				busy += st.Busy
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if n != windows {
			b.Fatalf("span %d cut %d windows, want %d", span, n, windows)
		}
	}
	b.StopTimer()
	elapsed := b.Elapsed()
	rowsPerSec := float64(raw.NumRows()) * float64(b.N) / elapsed.Seconds()
	b.ReportMetric(rowsPerSec, "rows/sec")
	if path := os.Getenv("BENCH_STAGE_JSON"); path != "" {
		wall := map[string]time.Duration{"windowed": elapsed}
		busyM := map[string]time.Duration{"windowed": busy}
		if err := writeStageTimingsJSON(path, "BenchmarkWindowedThroughput", b.N, elapsed, wall, busyM, mem.perOp(b.N)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFollowIngest measures the continuous-ingest hot path
// end to end over the real HTTP service: each iteration PUTs one
// whole window at a live-feed dataset and waits until the follow job
// reports it synthesized — so ns/op is the PUT→synthesized-window
// latency, and rows/sec the sustained follow throughput. With
// BENCH_STAGE_JSON set, merges a "follow" stage (per-window wall,
// summed pipeline busy) into the same BENCH_stage_timings.json that
// BenchmarkStageTimings and BenchmarkWindowedThroughput emit, so
// cmd/benchtraj tracks all three against one committed baseline.
func BenchmarkFollowIngest(b *testing.B) {
	const (
		span       = int64(1_000)
		windowRows = 300
	)
	gen, err := datagen.Generate(datagen.TON, datagen.Config{Rows: windowRows, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	var genCSV bytes.Buffer
	if err := gen.WriteCSV(&genCSV); err != nil {
		b.Fatal(err)
	}
	schema := netdpsyn.FlowSchema(datagen.LabelField(datagen.TON))
	template, err := netdpsyn.LoadCSV(&genCSV, schema)
	if err != nil {
		b.Fatal(err)
	}
	tsIdx := schema.Index(netdpsyn.FieldTS)
	// windowCSV renders the template shifted into bucket i: distinct
	// buckets per iteration, time-ordered rows within each.
	windowCSV := func(i int) string {
		w := netdpsyn.NewTable(schema, template.NumRows())
		if err := w.AppendRowRange(template, 0, template.NumRows()); err != nil {
			b.Fatal(err)
		}
		for r := 0; r < w.NumRows(); r++ {
			w.SetValue(r, tsIdx, int64(i)*span+int64(r)*span/int64(w.NumRows()))
		}
		var buf bytes.Buffer
		if err := w.WriteCSV(&buf); err != nil {
			b.Fatal(err)
		}
		return buf.String()
	}

	srv, err := serve.NewServer(serve.Options{MaxConcurrentJobs: 1, AllowVolatileFeed: true})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	regURL := fmt.Sprintf("%s/datasets?label=%s&feed=1&span=%d&budget_rho=1e9", ts.URL, datagen.LabelField(datagen.TON), span)
	resp, err := ts.Client().Post(regURL, "text/csv", nil)
	if err != nil {
		b.Fatal(err)
	}
	var dsInfo serve.Info
	if err := json.NewDecoder(resp.Body).Decode(&dsInfo); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	body, err := json.Marshal(serve.SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 4, Seed: 9, Follow: true})
	if err != nil {
		b.Fatal(err)
	}
	sresp, err := ts.Client().Post(ts.URL+"/datasets/"+dsInfo.ID+"/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	var ack serve.SynthesisResponse
	if err := json.NewDecoder(sresp.Body).Decode(&ack); err != nil {
		b.Fatal(err)
	}
	sresp.Body.Close()

	windowsDone := func() int {
		resp, err := ts.Client().Get(ts.URL + "/jobs/" + ack.JobID)
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		var info serve.JobInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			b.Fatal(err)
		}
		if info.State == serve.JobFailed {
			b.Fatalf("follow job failed: %s", info.Error)
		}
		return info.WindowsDone
	}

	b.ReportAllocs()
	mem := newMemMeter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, err := http.NewRequest(http.MethodPut,
			fmt.Sprintf("%s/datasets/%s/windows/%d", ts.URL, dsInfo.ID, i), strings.NewReader(windowCSV(i)))
		if err != nil {
			b.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			b.Fatalf("PUT window %d = %d", i, resp.StatusCode)
		}
		for windowsDone() < i+1 {
			time.Sleep(200 * time.Microsecond)
		}
	}
	b.StopTimer()
	elapsed := b.Elapsed()
	memOp := mem.perOp(b.N) // before the seal below allocates more
	b.ReportMetric(float64(windowRows)*float64(b.N)/elapsed.Seconds(), "rows/sec")

	// Seal so the job finishes and reports its summed pipeline stages
	// — the "follow" stage's busy time.
	fresp, err := ts.Client().Post(ts.URL+"/datasets/"+dsInfo.ID+"/seal", "application/json", nil)
	if err != nil {
		b.Fatal(err)
	}
	fresp.Body.Close()
	j, err := srv.WaitJob(ack.JobID, 60*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	var busy time.Duration
	for _, st := range j.Snapshot().Stages {
		busy += time.Duration(st.BusyMS * float64(time.Millisecond))
	}
	if path := os.Getenv("BENCH_STAGE_JSON"); path != "" {
		wall := map[string]time.Duration{"follow": elapsed}
		busyM := map[string]time.Duration{"follow": busy}
		if err := writeStageTimingsJSON(path, "BenchmarkFollowIngest", b.N, elapsed, wall, busyM, memOp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestDecode isolates the decode half of the data plane:
// one TON trace rendered to CSV bytes once, decoded per op through
// the streaming CSV path. Two arms share the input — "fast" is the
// byte-scanning decoder production streams use, "reference" is the
// encoding/csv path it replaced — so the ratio between them is
// the data-plane speedup, measured not asserted. Reports rows/sec;
// with BENCH_STAGE_JSON set, the fast arm merges an "ingest-decode"
// stage into the trajectory artifact (the pipeline's own "decode"
// stage — reading an already-loaded table's encoded form — keeps its
// key).
func BenchmarkIngestDecode(b *testing.B) {
	raw, err := datagen.Generate(datagen.TON, datagen.Config{Rows: 20_000, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if err := raw.WriteCSV(&csvBuf); err != nil {
		b.Fatal(err)
	}
	data := csvBuf.Bytes()
	schema := raw.Schema()
	rows := raw.NumRows()

	arm := func(b *testing.B, stage string, mk func(*bytes.Reader) (*dataset.CSVStream, error)) {
		b.ReportAllocs()
		mem := newMemMeter()
		rd := bytes.NewReader(data)
		b.SetBytes(int64(len(data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rd.Reset(data)
			s, err := mk(rd)
			if err != nil {
				b.Fatal(err)
			}
			tab := dataset.NewTable(schema, 0)
			for {
				tab.Reset()
				if err := s.NextInto(tab); err != nil {
					break
				}
			}
			if s.Rows() != rows {
				b.Fatalf("decoded %d rows, want %d", s.Rows(), rows)
			}
		}
		b.StopTimer()
		elapsed := b.Elapsed()
		memOp := mem.perOp(b.N)
		b.ReportMetric(float64(rows)*float64(b.N)/elapsed.Seconds(), "rows/sec")
		if path := os.Getenv("BENCH_STAGE_JSON"); stage != "" && path != "" {
			wall := map[string]time.Duration{stage: elapsed}
			busy := map[string]time.Duration{stage: elapsed}
			if err := writeStageTimingsJSON(path, "BenchmarkIngestDecode", b.N, elapsed, wall, busy, memOp); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("fast", func(b *testing.B) {
		arm(b, "ingest-decode", func(rd *bytes.Reader) (*dataset.CSVStream, error) {
			return dataset.NewFastCSVStream(rd, schema, 0)
		})
	})
	b.Run("reference", func(b *testing.B) {
		arm(b, "", func(rd *bytes.Reader) (*dataset.CSVStream, error) {
			return dataset.NewReferenceCSVStream(rd, schema, 0)
		})
	})
}

// BenchmarkResultEncode isolates the encode half: one synthetic-shape
// table rendered to CSV per op through WriteCSV — the exact call the
// result spool writers, the windowed result.csv streamer, and the CLI
// emit loop share. Reports rows/sec; with BENCH_STAGE_JSON set,
// merges a "result-encode" stage into the trajectory artifact.
func BenchmarkResultEncode(b *testing.B) {
	raw, err := datagen.Generate(datagen.TON, datagen.Config{Rows: 20_000, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	var size int64
	{
		var probe bytes.Buffer
		if err := raw.WriteCSV(&probe); err != nil {
			b.Fatal(err)
		}
		size = int64(probe.Len())
	}
	b.ReportAllocs()
	mem := newMemMeter()
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := raw.WriteCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	elapsed := b.Elapsed()
	memOp := mem.perOp(b.N)
	b.ReportMetric(float64(raw.NumRows())*float64(b.N)/elapsed.Seconds(), "rows/sec")
	if path := os.Getenv("BENCH_STAGE_JSON"); path != "" {
		wall := map[string]time.Duration{"result-encode": elapsed}
		busy := map[string]time.Duration{"result-encode": elapsed}
		if err := writeStageTimingsJSON(path, "BenchmarkResultEncode", b.N, elapsed, wall, busy, memOp); err != nil {
			b.Fatal(err)
		}
	}
}

// memMeter measures a benchmark loop's heap traffic so allocs/op can
// land in the trajectory artifact: snapshot at construction (just
// before ResetTimer), read the deltas at perOp (just after
// StopTimer). testing's own -benchmem counters aren't readable from
// inside the benchmark, so this mirrors them with ReadMemStats.
type memMeter struct {
	start runtime.MemStats
}

// memPerOp is one benchmark's per-op heap traffic.
type memPerOp struct {
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

func newMemMeter() *memMeter {
	m := &memMeter{}
	runtime.ReadMemStats(&m.start)
	return m
}

// perOp reads the deltas since construction, averaged over n ops.
func (m *memMeter) perOp(n int) memPerOp {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	return memPerOp{
		AllocsPerOp: float64(end.Mallocs-m.start.Mallocs) / float64(n),
		BytesPerOp:  float64(end.TotalAlloc-m.start.TotalAlloc) / float64(n),
	}
}

// stageTimingsFile is the BENCH_stage_timings.json shape shared with
// cmd/benchtraj: per-stage wall/busy milliseconds averaged over N
// runs, per-benchmark heap traffic, plus the equivalent benchfmt text
// lines for benchstat.
type stageTimingsFile struct {
	Benchmark string                       `json:"benchmark"`
	Go        string                       `json:"go"`
	GOOS      string                       `json:"goos"`
	GOARCH    string                       `json:"goarch"`
	Kernel    *kernelMeta                  `json:"kernel,omitempty"`
	N         int                          `json:"n"`
	NsPerOp   float64                      `json:"ns_per_op"`
	Stages    map[string]stageTimingsEntry `json:"stages"`
	Mem       map[string]memPerOp          `json:"mem,omitempty"`
	Benchfmt  []string                     `json:"benchfmt"`
}

// kernelMeta stamps the compute substrate the numbers were measured
// on: the architecture and its instruction-set baseline.
// cmd/benchtraj refuses to compare trajectories across different
// substrates — an arm64 run regressing against an amd64 baseline is
// a build-matrix mixup, not a performance regression.
type kernelMeta struct {
	GOARCH  string `json:"goarch"`
	GOAMD64 string `json:"goamd64,omitempty"`
}

// benchKernelMeta describes this test binary's substrate.
func benchKernelMeta() *kernelMeta {
	m := &kernelMeta{GOARCH: runtime.GOARCH}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				m.GOAMD64 = s.Value
			}
		}
	}
	return m
}

type stageTimingsEntry struct {
	WallMS float64 `json:"wall_ms"`
	BusyMS float64 `json:"busy_ms"`
}

// writeStageTimingsJSON merges the given benchmark's stage metrics
// into the bench trajectory artifact: an existing file's stages, mem
// entries, and benchfmt lines are kept (same-named entries
// overwritten), so BenchmarkStageTimings, BenchmarkWindowedThroughput
// and BenchmarkFollowIngest run in one CI step and land in one
// artifact.
func writeStageTimingsJSON(path, bench string, n int, elapsed time.Duration, wall, busy map[string]time.Duration, mem memPerOp) error {
	ms := func(d time.Duration) float64 {
		return float64(d.Microseconds()) / 1e3 / float64(n)
	}
	out := stageTimingsFile{
		Benchmark: bench,
		Go:        runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Kernel:    benchKernelMeta(),
		N:         n,
		NsPerOp:   float64(elapsed.Nanoseconds()) / float64(n),
		Stages:    make(map[string]stageTimingsEntry, len(wall)),
		Mem:       map[string]memPerOp{bench: mem},
	}
	if prev, err := os.ReadFile(path); err == nil {
		var old stageTimingsFile
		if json.Unmarshal(prev, &old) == nil {
			for name, e := range old.Stages {
				out.Stages[name] = e
			}
			for name, e := range old.Mem {
				if name != bench {
					out.Mem[name] = e
				}
			}
			for _, l := range old.Benchfmt {
				// Re-running the same benchmark replaces its line.
				if !strings.HasPrefix(l, bench+"-") {
					out.Benchfmt = append(out.Benchfmt, l)
				}
			}
		}
	}
	names := make([]string, 0, len(wall))
	for name := range wall {
		names = append(names, name)
		out.Stages[name] = stageTimingsEntry{WallMS: ms(wall[name]), BusyMS: ms(busy[name])}
	}
	sort.Strings(names)
	line := fmt.Sprintf("%s-%d %d %.0f ns/op %.0f B/op %.0f allocs/op",
		bench, runtime.GOMAXPROCS(0), n, out.NsPerOp, mem.BytesPerOp, mem.AllocsPerOp)
	for _, name := range names {
		line += fmt.Sprintf(" %.3f %s-wall-ms %.3f %s-busy-ms",
			out.Stages[name].WallMS, name, out.Stages[name].BusyMS, name)
	}
	out.Benchfmt = append(out.Benchfmt, line)
	// The file-level name is the union of the benchmarks that wrote it,
	// derived from the lines so re-runs stay deterministic.
	var benches []string
	for _, l := range out.Benchfmt {
		if i := strings.LastIndex(strings.Fields(l)[0], "-"); i > 0 {
			benches = append(benches, strings.Fields(l)[0][:i])
		}
	}
	sort.Strings(benches)
	out.Benchmark = strings.Join(benches, "+")
	raw, err := json.MarshalIndent(&out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func BenchmarkTable4MarginalExample(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		s, err := experiments.Table4(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", s)
		}
	}
}

func BenchmarkTable5DatasetSummary(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		g, err := experiments.Table5(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", g)
		}
	}
}

func BenchmarkFigure5AttributeTON(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s\n%s", res.JSD, res.EMD)
		}
	}
}

func BenchmarkFigure6AttributeCAIDA(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure6(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s\n%s", res.JSD, res.EMD)
		}
	}
}

func BenchmarkFigure7EpsilonSweep(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		grids, err := experiments.Figure7(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s\n%s", grids["DT"], grids["RF"])
		}
	}
}

func BenchmarkTable6TONEpsilonRange(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		grids, err := experiments.Table6(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s\n%s", grids["DT"], grids["RF"])
		}
	}
}

func BenchmarkTable7UGR16EpsilonRange(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		grids, err := experiments.Table7(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s\n%s", grids["DT"], grids["RF"])
		}
	}
}

func BenchmarkFigure8GUMMIvsGUM(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		grids, err := experiments.Figure8(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s\n%s", grids["DT"], grids["GB"])
			b.ReportMetric(grids["DT"].Get("1", "GUMMI"), "DT-1round-GUMMI")
			b.ReportMetric(grids["DT"].Get("1", "GUM"), "DT-1round-GUM")
		}
	}
}

func BenchmarkAppendixGMIA(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		g, err := experiments.AppendixG(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", g)
			b.ReportMetric(g.Get("Raw", "AttackAcc"), "MIA-raw")
			b.ReportMetric(g.Get("NetDPSyn ε=2", "AttackAcc"), "MIA-eps2")
		}
	}
}

func BenchmarkAblations(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		g, err := experiments.Ablations(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", g)
		}
	}
}

func BenchmarkExtensionCopula(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		g, err := experiments.CopulaComparison(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", g)
			b.ReportMetric(g.Get("NetDPSyn", "DT"), "DT-NetDPSyn")
			b.ReportMetric(g.Get("Copula", "DT"), "DT-Copula")
		}
	}
}

func BenchmarkExtensionWindowed(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		g, err := experiments.WindowedComparison(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", g)
		}
	}
}

// BenchmarkEvaluationQuality drives evaluation-as-a-service end to end
// over the real HTTP service: register a deterministic emulated TON
// trace, synthesize one release, then score it per iteration with
// every charged metric (marginal TVD + downstream ML + MIA) — an
// evaluation is never cached, so ns/op is the full raw-pass scoring
// latency. All seeds are pinned, so the scores themselves are
// bit-reproducible; with BENCH_QUALITY_JSON=<path> in the environment
// they land in the quality artifact that cmd/benchtraj -quality gates
// against bench/BENCH_quality.baseline.json.
func BenchmarkEvaluationQuality(b *testing.B) {
	const rows = 400
	gen, err := datagen.Generate(datagen.TON, datagen.Config{Rows: rows, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if err := gen.WriteCSV(&csvBuf); err != nil {
		b.Fatal(err)
	}

	srv, err := serve.NewServer(serve.Options{MaxConcurrentJobs: 1})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	regURL := fmt.Sprintf("%s/datasets?label=%s&budget_rho=1e9", ts.URL, datagen.LabelField(datagen.TON))
	resp, err := ts.Client().Post(regURL, "text/csv", &csvBuf)
	if err != nil {
		b.Fatal(err)
	}
	var dsInfo serve.Info
	if err := json.NewDecoder(resp.Body).Decode(&dsInfo); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b.Fatalf("register = %d", resp.StatusCode)
	}

	body, err := json.Marshal(serve.SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 4, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	sresp, err := ts.Client().Post(ts.URL+"/datasets/"+dsInfo.ID+"/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	var ack serve.SynthesisResponse
	if err := json.NewDecoder(sresp.Body).Decode(&ack); err != nil {
		b.Fatal(err)
	}
	sresp.Body.Close()
	if _, err := srv.WaitJob(ack.JobID, 60*time.Second); err != nil {
		b.Fatal(err)
	}

	evalBody, err := json.Marshal(serve.EvaluationRequest{
		JobID:   ack.JobID,
		Metrics: []string{"tvd", "ml", "mia"},
		Models:  []string{"DT", "LR"},
		Seed:    5,
	})
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	mem := newMemMeter()
	var last *serve.EvaluationResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eresp, err := ts.Client().Post(ts.URL+"/datasets/"+dsInfo.ID+"/evaluate", "application/json", bytes.NewReader(evalBody))
		if err != nil {
			b.Fatal(err)
		}
		var eack serve.EvaluationResponse
		if err := json.NewDecoder(eresp.Body).Decode(&eack); err != nil {
			b.Fatal(err)
		}
		eresp.Body.Close()
		if eresp.StatusCode != http.StatusAccepted {
			b.Fatalf("evaluate = %d", eresp.StatusCode)
		}
		j, err := srv.WaitJob(eack.JobID, 60*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		info := j.Snapshot()
		if info.State != serve.JobDone || info.Evaluation == nil {
			b.Fatalf("evaluation = %s (%s)", info.State, info.Error)
		}
		last = info.Evaluation
	}
	b.StopTimer()
	memOp := mem.perOp(b.N)
	b.ReportMetric(last.Fidelity.MeanTVD, "tvd-mean")
	b.ReportMetric(last.ML["DT"].SynthAccuracy, "dt-acc")

	if path := os.Getenv("BENCH_QUALITY_JSON"); path != "" {
		if err := writeQualityJSON(path, rows, 5, last, memOp); err != nil {
			b.Fatal(err)
		}
	}
}

// qualityFile is the BENCH_quality.json shape shared with
// cmd/benchtraj -quality: the deterministic-seed evaluation scores of
// one synthesized release, gated in CI against a committed baseline.
type qualityFile struct {
	Benchmark    string             `json:"benchmark"`
	Go           string             `json:"go"`
	GOOS         string             `json:"goos"`
	GOARCH       string             `json:"goarch"`
	Rows         int                `json:"rows"`
	Seed         uint64             `json:"seed"`
	TVDMean      float64            `json:"tvd_mean"`
	MLAccuracy   map[string]float64 `json:"ml_accuracy"`
	RealAccuracy map[string]float64 `json:"real_accuracy"`
	MIAAdvantage map[string]float64 `json:"mia_advantage"`
	Mem          memPerOp           `json:"mem"`
}

// writeQualityJSON renders one evaluation's scores as the quality
// trajectory artifact.
func writeQualityJSON(path string, rows int, seed uint64, res *serve.EvaluationResult, mem memPerOp) error {
	out := qualityFile{
		Benchmark:    "BenchmarkEvaluationQuality",
		Go:           runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		Rows:         rows,
		Seed:         seed,
		TVDMean:      res.Fidelity.MeanTVD,
		MLAccuracy:   map[string]float64{},
		RealAccuracy: map[string]float64{},
		MIAAdvantage: map[string]float64{},
		Mem:          mem,
	}
	for model, sc := range res.ML {
		out.MLAccuracy[model] = sc.SynthAccuracy
		out.RealAccuracy[model] = sc.RealAccuracy
	}
	for model, sc := range res.MIA {
		out.MIAAdvantage[model] = sc.Advantage
	}
	raw, err := json.MarshalIndent(&out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
