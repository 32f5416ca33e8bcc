package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"time"

	netdpsyn "github.com/netdpsyn/netdpsyn"
	"github.com/netdpsyn/netdpsyn/internal/datagen"
)

// Every release asks for ε = 1 at δ = 1e-5, the paper's headline
// setting; the ledger's expected spend is a multiple of its ρ.
const (
	epsilon = 1.0
	delta   = 1e-5
	// budgetRho is each dataset's ceiling: far above what any run
	// spends, so no admission is refused.
	budgetRho = 1e6
	// warmups is how many operations each set-up runs before timing,
	// with seeds outside the measured set.
	warmups = 2
	// setups is how many times a run sets the daemon up from scratch;
	// setup_s is their median and the last one is measured.
	setups = 5
)

// workload is one named traffic mix; README.md says why each exists.
type workload struct {
	name string
	// tail is the percentile latency_tail_ms reports: the highest one
	// a run's sample count supports with ten samples beyond it.
	tail float64
	// The closed-loop input: an emulated dataset at a size.
	dataset datagen.Name
	rows    int
	// stream registers the trace with ?stream=1, requests window_span
	// synthesis, and reads result.csv while the job runs.
	stream bool
	// follow marks the open-loop live-feed workload.
	follow bool
}

// workloads are the benchmark of record: the ones BENCHMARK.json
// declares, and the ones a run without -workload runs.
var workloads = []*workload{
	{name: "release", tail: 0.90, dataset: datagen.TON, rows: 5000},
	{name: "span", tail: 0.80, dataset: datagen.TON, rows: 16000, stream: true},
	{name: "release-large", tail: 0.70, dataset: datagen.CAIDA, rows: 25000},
}

// followWorkload runs only when named. Its few-millisecond windows
// read the host's scheduling and fsync latency more than the daemon's
// work, so on a shared host its spread between runs is too wide for a
// regression bound (README.md); it is for paired comparisons.
var followWorkload = &workload{name: "follow", tail: 0.95, follow: true}

// The follow workload's feed: 300-row TON windows PUT at a fixed rate
// into consecutive buckets of followSpan timestamp units, synthesized
// as 300 records each with a short GUM.
const (
	followRate       = 50 // windows per second
	followRows       = 300
	followSpan       = 1000
	followIterations = 4
	followPool       = 64 // distinct generated windows the feed cycles through
)

func workloadByName(name string) (*workload, error) {
	for _, w := range append(workloads, followWorkload) {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// options carries one run's settings.
type options struct {
	work    string  // scratch space for state dirs, probes and spans
	bin     string  // the netdpsynd binary
	seed    uint64  // input and request seed
	seconds float64 // measured phase length
	trace   bool    // traced run: per-layer metrics instead of end-to-end ones
	// setups overrides the set-up count; ops and windows bound the
	// measured phase by count instead of time (both for smoke tests).
	setups, ops, windows int
}

// Wire shapes of the daemon's JSON API, declared here so the benchmark
// is defined by what the daemon serves, not by its Go types.
type (
	synthRequest struct {
		Epsilon    float64 `json:"epsilon"`
		Delta      float64 `json:"delta"`
		Iterations int     `json:"iterations,omitempty"`
		Records    int     `json:"records,omitempty"`
		Seed       uint64  `json:"seed"`
		WindowSpan int64   `json:"window_span,omitempty"`
		Follow     bool    `json:"follow,omitempty"`
	}
	synthAck struct {
		JobID  string  `json:"job_id"`
		Cached bool    `json:"cached"`
		Rho    float64 `json:"rho"`
	}
	jobInfo struct {
		State       string        `json:"state"`
		Error       string        `json:"error"`
		Submitted   time.Time     `json:"submitted"`
		Started     *time.Time    `json:"started"`
		Finished    *time.Time    `json:"finished"`
		Records     int           `json:"records"`
		WindowsDone int           `json:"windows_done"`
		Trace       []windowTrace `json:"trace"`
	}
	windowTrace struct {
		Bucket *int64 `json:"bucket"`
		Spans  []struct {
			Stage  string    `json:"stage"`
			Start  time.Time `json:"start"`
			WallMS float64   `json:"wall_ms"`
			BusyMS float64   `json:"busy_ms"`
		} `json:"spans"`
	}
	datasetInfo struct {
		ID string `json:"id"`
	}
	budgetStatus struct {
		SpentRho float64 `json:"spent_rho"`
	}
)

// trial is one run of one workload against one daemon.
type trial struct {
	w  *workload
	o  options
	in *trace
	// pool and warmPool hold the follow workload's windows.
	pool, warmPool *windowPool

	d   *daemon
	ds  string  // dataset id
	rho float64 // the spend the ledger must report
	// wantRho is ρ(ε, δ): every admission must price at it.
	wantRho float64
	// The follow job, its result stream, and the measured windows.
	job    string
	stream *followStream
	sent   []sentWindow

	body bytes.Buffer // result.csv of the current operation
}

// sample is one measured operation.
type sample struct {
	latency float64 // ms
	rows    int
	polls   int
	tr      *opTrace // traced runs only
}

// measurement is the measured phase's outcome.
type measurement struct {
	ops               []sample
	attempted, failed int
	rows              int
	wall              time.Duration
	// result is one verified result table, for the encode probe.
	result *netdpsyn.Table
	// Generator health: how late the worst request was sent (for a
	// closed loop, after the previous one completed), and, for follow,
	// the most windows acknowledged but not yet delivered.
	lateMax    float64
	backlogMax int
	// rssMB is the daemon's peak RSS once the workload's minimum sample
	// count has completed. The daemon retains recent results, so its
	// footprint grows with the operations served; reading it at a fixed
	// count keeps a faster daemon, which serves more operations in the
	// run, from reading as a memory regression.
	rssMB float64
}

func (s *trial) reqID(tag string) string {
	return fmt.Sprintf("%s-%d-%s", s.w.name, s.o.seed, tag)
}

// generate makes the run's inputs from its seed.
func (s *trial) generate() error {
	var err error
	s.wantRho, err = netdpsyn.RhoFromEpsDelta(epsilon, delta)
	if err != nil {
		return err
	}
	if s.w.follow {
		if s.pool, err = newWindowPool(s.o.seed, streamWindow, followPool, followRows, followSpan); err != nil {
			return err
		}
		s.warmPool, err = newWindowPool(s.o.seed, streamWarmWindow, warmups, followRows, followSpan)
		if err != nil {
			return err
		}
		s.in = &trace{kind: "flow", label: datagen.LabelField(datagen.TON), labels: s.pool.labels}
		s.in.schema = netdpsyn.FlowSchema(s.in.label)
		for l := range s.warmPool.labels {
			s.in.labels[l] = true
		}
		return nil
	}
	s.in, err = newTrace(s.w.dataset, s.w.rows, mix(s.o.seed, streamTrace, 0))
	return err
}

// setup starts a daemon on a fresh state dir, registers the input,
// admits the follow job where there is one, and warms up.
func (s *trial) setup(ctx context.Context, stateDir string) error {
	d, err := startDaemon(ctx, s.o.bin, stateDir)
	if err != nil {
		return err
	}
	s.d, s.rho = d, 0
	q := url.Values{"schema": {s.in.kind}, "budget_rho": {strconv.FormatFloat(budgetRho, 'g', -1, 64)}}
	if s.in.label != "" {
		q.Set("label", s.in.label)
	}
	switch {
	case s.w.follow:
		q.Set("feed", "1")
		q.Set("span", strconv.Itoa(followSpan))
	case s.w.stream:
		q.Set("stream", "1")
	}
	var info datasetInfo
	if err := d.c.call(ctx, http.MethodPost, "/datasets?"+q.Encode(), s.reqID("register"), s.in.csv, http.StatusCreated, &info); err != nil {
		return fmt.Errorf("register: %w", err)
	}
	s.ds = info.ID
	if s.w.follow {
		return s.followSetup(ctx)
	}
	for k := 0; k < warmups; k++ {
		if _, err := s.release(ctx, s.reqID(fmt.Sprintf("w%d", k)), mix(s.o.seed, streamWarm, uint64(k)), false); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// teardown stops the daemon and, for follow, its result stream. An
// open follow stream is ended by sealing the feed first: the daemon's
// SIGTERM handling waits for open connections before it seals feeds,
// so a stream still following the job would hold shutdown for the
// whole drain timeout.
func (s *trial) teardown() {
	if s.d == nil {
		return
	}
	if s.stream != nil {
		select {
		case <-s.stream.done:
		default:
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			if s.d.c.call(ctx, http.MethodPost, "/datasets/"+s.ds+"/seal", s.reqID("seal"), nil, http.StatusOK, nil) == nil {
				select {
				case <-s.stream.done:
				case <-ctx.Done():
				}
			}
			cancel()
		}
	}
	s.d.stop()
	if s.stream != nil {
		<-s.stream.done
		s.stream = nil
	}
	s.d = nil
}

// closedLoop runs releases back to back, one client, until the run
// length has passed and the tail percentile has enough samples (or,
// in count-bound runs, for o.ops releases). A slower daemon makes the
// run longer, not shorter of samples, so a slowdown reads as a latency
// regression rather than a failed run.
func (s *trial) closedLoop(ctx context.Context) (*measurement, error) {
	m := &measurement{}
	start := time.Now()
	length := time.Duration(s.o.seconds * float64(time.Second))
	need := minSamples(s.w.tail)
	var prevEnd time.Time
	for i := 0; ; i++ {
		el := time.Since(start)
		if s.o.ops > 0 {
			if i >= s.o.ops {
				break
			}
		} else if el >= length && len(m.ops) >= need {
			break
		}
		m.attempted++
		op, err := s.release(ctx, s.reqID(strconv.Itoa(i)), mix(s.o.seed, streamRequest, uint64(i)), s.o.trace)
		if isHTTPFailure(err) {
			m.failed++
			continue
		}
		if err != nil {
			return nil, err
		}
		m.ops = append(m.ops, op.sample)
		m.rows += op.rows
		m.result = op.table
		// In a closed loop a request is due when the previous one
		// completes; the client's verification makes it late.
		if !prevEnd.IsZero() {
			m.lateMax = max(m.lateMax, float64(op.start.Sub(prevEnd))/1e6)
		}
		prevEnd = op.end
		if len(m.ops) == need {
			if m.rssMB, err = s.d.peakRSSMB(); err != nil {
				return nil, err
			}
		}
	}
	m.wall = time.Since(start)
	return m, nil
}

// releaseOp is one verified release: its sample, the result, and when
// it was sent and completed.
type releaseOp struct {
	sample
	table      *netdpsyn.Table
	start, end time.Time
}

// release submits one synthesis, waits for it the way a client would
// (polling GET /jobs/{id} every millisecond, or reading the result
// stream of a windowed job), fetches result.csv, and verifies it.
func (s *trial) release(ctx context.Context, id string, seed uint64, traced bool) (*releaseOp, error) {
	req := synthRequest{Epsilon: epsilon, Delta: delta, Seed: seed}
	if s.w.stream {
		req.WindowSpan = s.in.span
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	c := s.d.c
	t0 := time.Now()
	var ack synthAck
	if err := c.call(ctx, http.MethodPost, "/datasets/"+s.ds+"/synthesize", id, body, http.StatusAccepted, &ack); err != nil {
		return nil, err
	}
	tAck := time.Now()
	if err := s.admitted(ack, id); err != nil {
		return nil, err
	}
	result := "/jobs/" + ack.JobID + "/result.csv"
	var (
		info        jobInfo
		polls       int
		tSeen, tEnd time.Time
	)
	if s.w.stream {
		// The stream ends when the job seals its result spool, just
		// before the job turns done; the poll after it is bookkeeping.
		if err := c.fetch(ctx, result, id, &s.body); err != nil {
			return nil, err
		}
		tEnd = time.Now()
		if info, _, err = s.waitDone(ctx, ack.JobID, id); err != nil {
			return nil, err
		}
	} else {
		if info, polls, err = s.waitDone(ctx, ack.JobID, id); err != nil {
			return nil, err
		}
		tSeen = time.Now()
		// A failed job answers 500 here: an HTTP failure.
		if err := c.fetch(ctx, result, id, &s.body); err != nil {
			return nil, err
		}
		tEnd = time.Now()
	}
	if info.State != "done" {
		return nil, &httpError{method: http.MethodGet, path: "/jobs/" + ack.JobID, code: http.StatusOK, msg: "job " + info.State + ": " + info.Error}
	}
	t, err := verifyResult(s.body.Bytes(), s.in.schema, info.Records, s.in.labels)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	if s.w.stream && info.WindowsDone != s.in.windows {
		return nil, fmt.Errorf("%s: span job reported %d windows, the trace has %d non-empty buckets", id, info.WindowsDone, s.in.windows)
	}
	op := &releaseOp{sample: sample{latency: float64(tEnd.Sub(t0)) / 1e6, rows: info.Records, polls: polls}, table: t, start: t0, end: tEnd}
	if traced {
		tr := newOpTrace(id, "e2e.release", t0)
		tr.add("serve.submit", 0, t0, tAck)
		tr.add("serve.queue_wait", 0, info.Submitted, *info.Started)
		job := tr.add("serve.job", 0, *info.Started, *info.Finished)
		last := addStages(tr, job, info.Trace)
		if s.w.stream {
			tr.add("serve.fetch", 0, last, tEnd)
		} else {
			tr.add("serve.fetch", 0, tSeen, tEnd)
		}
		tr.finish(tEnd)
		op.tr = tr
	}
	return op, nil
}

// admitted checks an admission acknowledgement and books its charge.
// Each request carries a fresh seed, so none may be a cache hit, and
// every release prices at ρ(ε, δ). Plain releases compose
// sequentially on the scalar ledger (Σρ); span releases charge ρ to
// every bucket key, so the position (the max over keys) also grows by
// ρ per job.
func (s *trial) admitted(ack synthAck, id string) error {
	if ack.Cached {
		return fmt.Errorf("%s: answered from the result cache, but every request carries a fresh seed", id)
	}
	if err := verifySpend(ack.Rho, s.wantRho); err != nil {
		return fmt.Errorf("%s: admission price: %w", id, err)
	}
	s.rho += ack.Rho
	return nil
}

// addStages records a job trace's engine stage spans under parent and
// returns the end of the last one.
func addStages(tr *opTrace, parent int, windows []windowTrace) time.Time {
	var last time.Time
	for _, w := range windows {
		for _, sp := range w.Spans {
			end := sp.Start.Add(time.Duration(sp.WallMS * 1e6))
			i := tr.add("core."+sp.Stage, parent, sp.Start, end)
			tr.spans[i].BusyMS = sp.BusyMS
			if end.After(last) {
				last = end
			}
		}
	}
	return last
}

// waitDone polls GET /jobs/{id} every millisecond until the job is
// done or failed.
func (s *trial) waitDone(ctx context.Context, job, id string) (jobInfo, int, error) {
	for polls := 1; ; polls++ {
		var info jobInfo
		if err := s.d.c.call(ctx, http.MethodGet, "/jobs/"+job, id, nil, http.StatusOK, &info); err != nil {
			return info, polls, err
		}
		if info.State == "done" || info.State == "failed" {
			return info, polls, nil
		}
		select {
		case <-ctx.Done():
			return info, polls, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// verifyLedger checks the dataset's final spend against the
// composition the workload's releases imply, and that no request was
// answered from the result cache.
func (s *trial) verifyLedger(ctx context.Context, after scrape) error {
	var st budgetStatus
	if err := s.d.c.call(ctx, http.MethodGet, "/datasets/"+s.ds+"/budget", s.reqID("budget"), nil, http.StatusOK, &st); err != nil {
		return fmt.Errorf("read budget: %w", err)
	}
	if err := verifySpend(st.SpentRho, s.rho); err != nil {
		return fmt.Errorf("ledger spent_rho is not the composition of the releases admitted: %w", err)
	}
	if hits := familySum(after, "netdpsynd_result_cache_hits_total"); hits != 0 {
		return fmt.Errorf("netdpsynd_result_cache_hits_total is %g; every request carries a fresh seed", hits)
	}
	return nil
}

// settledMetrics scrapes /metrics until two scrapes 20 ms apart agree
// on the journal's append count: a job turns done before its terminal
// record is journaled, so the last operation's append can trail its
// response.
func (s *trial) settledMetrics(ctx context.Context) (scrape, error) {
	prev, err := s.d.c.metrics(ctx)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 100; i++ {
		time.Sleep(20 * time.Millisecond)
		cur, err := s.d.c.metrics(ctx)
		if err != nil {
			return nil, err
		}
		if familySum(cur, "netdpsynd_journal_appends_total") == familySum(prev, "netdpsynd_journal_appends_total") {
			return cur, nil
		}
		prev = cur
	}
	return prev, nil
}

// runWorkload runs one workload once: generate inputs, set up (several
// times, keeping the last daemon), measure, verify, and report.
func runWorkload(ctx context.Context, w *workload, o options) (*result, error) {
	s := &trial{w: w, o: o}
	t0 := time.Now()
	if err := s.generate(); err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	dir, err := os.MkdirTemp(o.work, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	n := setups
	if o.setups > 0 {
		n = o.setups
	}
	var setupS []float64
	defer s.teardown()
	tGen := time.Now()
	for k := 0; k < n; k++ {
		s.teardown()
		ts := time.Now()
		if err := s.setup(ctx, filepath.Join(dir, fmt.Sprintf("state-%d", k))); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(ts).Seconds())
	}
	tMeasure := time.Now()

	before, err := s.settledMetrics(ctx)
	if err != nil {
		return nil, err
	}
	var m *measurement
	if w.follow {
		m, err = s.followLoop(ctx)
	} else {
		m, err = s.closedLoop(ctx)
	}
	if err != nil {
		return nil, err
	}
	after, err := s.settledMetrics(ctx)
	if err != nil {
		return nil, err
	}
	if w.follow {
		if err := s.followFinish(ctx, m); err != nil {
			return nil, err
		}
	}
	if err := s.verifyLedger(ctx, after); err != nil {
		return nil, err
	}
	if len(m.ops) == 0 {
		return nil, fmt.Errorf("no operation succeeded (%d attempted)", m.attempted)
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: inputs %.1fs, set-ups %.3gs (%.1fs), %d operations in %.1fs, verified by %.1fs\n",
		w.name, o.seed, tGen.Sub(t0).Seconds(), setupS, tMeasure.Sub(tGen).Seconds(), len(m.ops), m.wall.Seconds(), time.Since(t0).Seconds())
	if m.rssMB == 0 {
		// The follow feed's window count is fixed; count-bound runs stop
		// short of the minimum sample count.
		if m.rssMB, err = s.d.peakRSSMB(); err != nil {
			return nil, err
		}
	}
	res := &result{Correct: true, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}}
	if !o.trace {
		if err := s.endToEnd(res, m, setupS); err != nil {
			return nil, err
		}
		return res, nil
	}
	if err := s.perLayer(res, m, before, after, dir); err != nil {
		return nil, err
	}
	var ops []*opTrace
	for _, op := range m.ops {
		ops = append(ops, op.tr)
	}
	if err := writeSpans(spansPath(o.work, w.name, o.seed), ops); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return res, nil
}

// spansPath is where a traced run writes its spans.
func spansPath(work, workload string, seed uint64) string {
	return filepath.Join(work, fmt.Sprintf("spans-%s-%d.json", workload, seed))
}
