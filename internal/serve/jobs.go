package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	netdpsyn "github.com/netdpsyn/netdpsyn"
	"github.com/netdpsyn/netdpsyn/internal/core"
	"github.com/netdpsyn/netdpsyn/internal/serve/persist"
)

// JobState is the lifecycle of a synthesis job: queued → running →
// done | failed.
type JobState string

// Job lifecycle states.
const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// Job is one admitted synthesis release. Its budget charge (Rho) is
// fixed at admission; the result appears when a queue runner finishes
// the pipeline.
type Job struct {
	ID        string
	DatasetID string
	Submitted time.Time
	// Rho is the per-release zCDP price of this job. Cache hits return
	// the originally-charged job, so a spend is never duplicated. For
	// a whole-trace job it is the scalar charged at admission. For
	// span and follow jobs it is ONE window's ρ: the admission itself
	// charges nothing, and each window charges Rho to its own
	// (span, bucket) ledger key as it is released — distinct keys
	// compose in parallel (the ledger position is their max), the same
	// key re-released in a later epoch composes sequentially. See
	// Submit.
	Rho float64
	// Span > 0 marks a time-span windowed job: the trace is cut into
	// fixed time buckets of Span timestamp units (window-by-window
	// synthesis, per-window progress, result streamed as windows
	// complete). The window count is data-dependent and unknown until
	// the job runs. Follow jobs carry their feed's span here.
	Span int64
	// Follow marks a live-feed follow job: it synthesizes each window
	// of Epoch's feed as it lands and finishes when the feed is
	// sealed. Epoch pins the feed generation the job consumes.
	Follow bool
	Epoch  int
	// Evaluate marks an evaluation job: it scores TargetJobID's
	// finished release instead of synthesizing. Its Rho is the scalar
	// charge of the raw-data pass (0 for release-only evaluations).
	Evaluate    bool
	TargetJobID string

	cfg      netdpsyn.Config
	cacheKey string
	// evalReq is the evaluation job's normalized request (metric set,
	// models, price, seed).
	evalReq EvaluationRequest
	// feed is the feed instance a follow job binds to (captured at
	// admission, or at recovery for a resumed job).
	feed *netdpsyn.WindowFeed
	// bucketLo/Hi is the job's declared bucket range: follow jobs
	// inherit the feed's, span jobs may declare one in the request.
	// When set, the finished job reports the declared-but-empty
	// buckets explicitly instead of silently omitting them, and a
	// window outside the range fails the job at its gate.
	bucketLo, bucketHi *int64

	mu                sync.Mutex
	state             JobState
	errMsg            string
	started, finished time.Time
	records           int
	windowsDone       int
	// charged maps each window key this job has paid for — a span or
	// follow window's bucket, or 0 for a plain job's admission — to the
	// ρ the current run charged for it. A resumed or resurrected job
	// keeps the keys and skips re-charging them (re-releasing the same
	// bucket from the same records and seed is the identical
	// deterministic computation, so it releases nothing new), and its
	// values read 0: the spend is on the ledger, but this run paid
	// nothing new. The values feed the job trace's rho_charged.
	charged map[int64]float64
	// trace is the job's ordered execution trace: one entry per
	// released window (plain jobs: one whole-trace entry), each with
	// its stage spans. Appended as windows complete, so GET /jobs/{id}
	// shows the trace growing while the job runs.
	trace []WindowTrace
	// result is a plain job's synthesized table, kept in memory; nil
	// for windowed jobs and once evicted from the retention window.
	result *netdpsyn.Table
	stages map[string]StageMS
	// evaluation holds a finished evaluation job's scores.
	evaluation *EvaluationResult
	// spool streams the synthesized CSV incrementally (windowed jobs)
	// and/or persists it under the state dir (any job kind with a
	// store), so result.csv can follow a running job and a restarted
	// daemon serves finished results without recomputation.
	spool *resultSpool

	done chan struct{}
}

// Done is closed when the job reaches a terminal state. Resurrecting
// an evicted job (see Submit) installs a fresh channel, so callers
// must re-fetch after observing a done job.
func (j *Job) Done() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done
}

// resurrect re-queues a finished job whose result is no longer
// servable (evicted from the retention window, or its spool file
// lost), so an identical request can regenerate it. Re-running a
// fixed deterministic (Config, Seed) computation releases no new
// information, so this costs no budget. Reports whether the job was
// in the done-but-unservable state. Only cache hits reach it, so
// never an evaluation: re-running one would be a fresh raw-data pass.
func (j *Job) resurrect() bool {
	if j.Follow {
		// A follow job's input was a live feed epoch, which may have
		// been superseded since; re-running it is not guaranteed to be
		// the identical computation, so an evicted follow result stays
		// evicted (410 explains it).
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobDone || j.result != nil {
		return false
	}
	if j.spool != nil && j.spool.servable() {
		return false // the result still streams from the spool
	}
	j.state = JobQueued
	j.started, j.finished = time.Time{}, time.Time{}
	j.windowsDone = 0
	j.stages = nil // the re-run re-accumulates; keeping them would double-count
	j.trace = nil  // ditto
	for b := range j.charged {
		j.charged[b] = 0 // the keys stay paid for; the re-run pays nothing new
	}
	j.spool = nil
	j.done = make(chan struct{})
	return true
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns a plain job's synthesized table, or false while the
// job is not successfully finished (or its result has been evicted
// from the retention window, or lives only in its spool).
func (j *Job) Result() (*netdpsyn.Table, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobDone || j.result == nil {
		return nil, false
	}
	return j.result, true
}

// StageMS is a stage's wall/busy split in milliseconds, the JSON
// rendering of netdpsyn.StageTiming.
type StageMS struct {
	WallMS float64 `json:"wall_ms"`
	BusyMS float64 `json:"busy_ms"`
}

// SpanMS is one ordered stage span of a job trace: the stage name,
// its absolute start instant, and its wall/busy split — the JSON
// rendering of netdpsyn.StageSpan.
type SpanMS struct {
	Stage  string    `json:"stage"`
	Start  time.Time `json:"start"`
	WallMS float64   `json:"wall_ms"`
	BusyMS float64   `json:"busy_ms"`
}

// WindowTrace is one entry of a job's execution trace: one released
// window (or, for plain jobs, the single whole-trace run), with the
// ordered stage spans of its pipeline and the ρ this run charged for
// it. RhoCharged is 0 for windows whose charge was inherited — a
// resumed or resurrected job re-releasing a bucket (or a plain job
// re-releasing the trace) it already paid for, where the
// deterministic re-run releases nothing new.
type WindowTrace struct {
	// Window is the 0-based emission ordinal; Bucket is the absolute
	// time bucket for span/follow windows (absent otherwise).
	Window     int      `json:"window"`
	Bucket     *int64   `json:"bucket,omitempty"`
	RhoCharged float64  `json:"rho_charged"`
	Records    int      `json:"records"`
	Spans      []SpanMS `json:"spans"`
	// Quality is the free rolling-quality entry of a follow job's
	// released window (see WindowQuality); absent on other job kinds.
	Quality *WindowQuality `json:"quality,omitempty"`
}

// spansMS renders a pipeline run's ordered stage spans for the trace.
func spansMS(spans []netdpsyn.StageSpan) []SpanMS {
	if len(spans) == 0 {
		return nil
	}
	out := make([]SpanMS, len(spans))
	for i, sp := range spans {
		out[i] = SpanMS{
			Stage:  sp.Name,
			Start:  sp.Start,
			WallMS: float64(sp.Wall.Microseconds()) / 1e3,
			BusyMS: float64(sp.Busy.Microseconds()) / 1e3,
		}
	}
	return out
}

// JobInfo is the JSON shape of a job on GET /jobs/{id}.
type JobInfo struct {
	ID        string `json:"id"`
	DatasetID string `json:"dataset_id"`
	// Kind is the job kind: "synthesize" (plain and windowed jobs),
	// "follow" (live-feed follow jobs), or "evaluate".
	Kind      string    `json:"kind"`
	State     JobState  `json:"state"`
	Error     string    `json:"error,omitempty"`
	Epsilon   float64   `json:"epsilon"`
	Delta     float64   `json:"delta"`
	Seed      uint64    `json:"seed"`
	Rho       float64   `json:"rho"`
	Submitted time.Time `json:"submitted"`
	// WindowSpan/WindowsDone report a windowed job's span and
	// per-window progress (absent for whole-trace jobs). The window
	// count is data-dependent and emerges as the job runs; result.csv
	// streams the finished windows while the job runs.
	WindowSpan  int64 `json:"window_span,omitempty"`
	WindowsDone int   `json:"windows_done,omitempty"`
	// Follow/Epoch mark a live-feed follow job and the feed epoch it
	// consumes.
	Follow bool `json:"follow,omitempty"`
	Epoch  int  `json:"epoch,omitempty"`
	// TargetJob names the synthesis job an evaluation job scores;
	// Evaluation carries the finished scores.
	TargetJob  string            `json:"target_job,omitempty"`
	Evaluation *EvaluationResult `json:"evaluation,omitempty"`
	// EmptyBuckets lists the declared-but-empty buckets of a finished
	// job with a declared bucket range: buckets in the range that
	// released no window. Reporting them explicitly (instead of the
	// reader inferring occupancy from which windows are missing) is
	// the disclosure-hardening contract — the release already reveals
	// which buckets are non-empty, and this makes that surface
	// auditable.
	EmptyBuckets []int64 `json:"empty_buckets,omitempty"`
	// Started/Finished are pointers so they are genuinely absent from
	// the JSON until reached (omitempty never fires for struct types).
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// Records and Stages are filled once the job is done.
	Records int                `json:"records,omitempty"`
	Stages  map[string]StageMS `json:"stages,omitempty"`
	// Trace is the job's ordered execution trace — per released window
	// (plain jobs: one whole-trace entry), the stage spans and the ρ
	// charged. Present as soon as the first window lands, so a running
	// windowed job's trace grows under polling.
	Trace []WindowTrace `json:"trace,omitempty"`
}

// Job kind names, as reported in JobInfo.Kind and accepted by the
// GET /jobs?kind= filter.
const (
	KindSynthesize = "synthesize"
	KindFollow     = "follow"
	KindEvaluate   = "evaluate"
)

// Kind classifies the job for listings: evaluation jobs and follow
// jobs get their own kinds; everything else (plain and windowed
// synthesis) is "synthesize".
func (j *Job) Kind() string {
	switch {
	case j.Evaluate:
		return KindEvaluate
	case j.Follow:
		return KindFollow
	default:
		return KindSynthesize
	}
}

// Snapshot returns the job's current state for serialization.
func (j *Job) Snapshot() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{
		ID:          j.ID,
		DatasetID:   j.DatasetID,
		Kind:        j.Kind(),
		TargetJob:   j.TargetJobID,
		Evaluation:  j.evaluation,
		State:       j.state,
		Error:       j.errMsg,
		Epsilon:     j.cfg.Epsilon,
		Delta:       j.cfg.Delta,
		Seed:        j.cfg.Seed,
		Rho:         j.Rho,
		WindowSpan:  j.Span,
		WindowsDone: j.windowsDone,
		Follow:      j.Follow,
		Epoch:       j.Epoch,
		Submitted:   j.Submitted,
	}
	// Entries are immutable once appended, so sharing the backing
	// array up to the snapshot length is safe even while the job keeps
	// appending (append past len never rewrites earlier entries, and a
	// resurrected job starts a fresh slice).
	info.Trace = j.trace[:len(j.trace):len(j.trace)]
	if !j.started.IsZero() {
		t := j.started
		info.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		info.Finished = &t
	}
	if j.state == JobDone {
		info.Records = j.records
		info.EmptyBuckets = j.emptyBucketsLocked()
		if j.stages != nil {
			// Copy: the live map is written again if the job is
			// resurrected and re-run while a caller still holds this
			// snapshot.
			info.Stages = make(map[string]StageMS, len(j.stages))
			for name, st := range j.stages {
				info.Stages[name] = st
			}
		}
	}
	return info
}

// emptyBucketsLocked lists the declared-but-empty buckets: every
// bucket of the declared range that released no window. nil without a
// declared range (nothing to enumerate against — the honest answer,
// not an empty list). Caller holds j.mu.
func (j *Job) emptyBucketsLocked() []int64 {
	if j.bucketLo == nil || j.bucketHi == nil {
		return nil
	}
	var empty []int64
	for b := *j.bucketLo; b <= *j.bucketHi; b++ {
		if _, ok := j.charged[b]; !ok {
			empty = append(empty, b)
		}
	}
	return empty
}

// markCharged records a window key this job charged (or, at rho 0,
// inherited from a recovered charge record).
func (j *Job) markCharged(bucket int64, rho float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.charged == nil {
		j.charged = make(map[int64]float64)
	}
	if _, ok := j.charged[bucket]; !ok {
		j.charged[bucket] = rho
	}
}

// alreadyCharged reports whether this job charged the bucket before
// (a resumed or resurrected job re-releases it at zero cost).
func (j *Job) alreadyCharged(bucket int64) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, ok := j.charged[bucket]
	return ok
}

// setStages renders per-stage timings for the JSON snapshot,
// summing across windows for windowed jobs. Caller holds j.mu.
func (j *Job) setStages(stages map[string]netdpsyn.StageTiming) {
	if len(stages) == 0 {
		return
	}
	if j.stages == nil {
		j.stages = make(map[string]StageMS, len(stages))
	}
	for name, st := range stages {
		prev := j.stages[name]
		j.stages[name] = StageMS{
			WallMS: prev.WallMS + float64(st.Wall.Microseconds())/1e3,
			BusyMS: prev.BusyMS + float64(st.Busy.Microseconds())/1e3,
		}
	}
}

// ErrQueueClosed is returned by Submit after Shutdown began.
var ErrQueueClosed = fmt.Errorf("serve: job queue is shut down")

// ErrQueueFull is returned when the pending backlog is at capacity;
// the HTTP layer maps it to 503.
var ErrQueueFull = fmt.Errorf("serve: job queue is full")

// Queue runs admitted jobs through the staged synthesis engine. A
// fixed set of runner goroutines drains the backlog, and the global
// engine-worker budget is divided evenly among them, so the service's
// total synthesis parallelism stays bounded no matter how many jobs
// are in flight. Because the engine's output is byte-identical across
// worker counts, this scheduling freedom never changes results.
type Queue struct {
	reg        *Registry
	perJob     int // engine workers per concurrent job
	maxBacklog int
	// maxResults bounds how many finished jobs keep their result —
	// the in-memory synthesized table AND the results/ spool file:
	// without a bound, a long-lived daemon's RSS grows by one full
	// trace per admitted job and its results/ dir grows one file per
	// job forever (the ROADMAP retention follow-on). resultTTL, when
	// set, additionally evicts results older than it (age sweep).
	// Evicted jobs keep their metadata (state, ρ, record count) and
	// their cache entry; result.csv answers 410 Gone, and resubmitting
	// the identical request resurrects the job — re-running the same
	// deterministic computation — at zero budget cost.
	maxResults int
	resultTTL  time.Duration
	sweepStop  chan struct{}
	// maxJobs bounds the job *metadata* maps the same way: past the
	// cap, the oldest jobs that no longer hold a result (failed, or
	// done and evicted) are forgotten entirely — their ids 404 and
	// their cache entries go with them, so an identical resubmit is
	// re-admitted with a fresh charge (conservative: the ledger never
	// under-counts). In-flight jobs and retained results are never
	// forgotten.
	maxJobs int
	// store, when non-nil, journals every admission (before the job
	// runs — see Budget.Charge) and every terminal transition, so a
	// restart replays admitted-but-unfinished jobs as charged
	// failures instead of silently re-running them. It also hosts the
	// result spool: finished CSVs land under results/ and survive a
	// restart.
	store *persist.Store
	// defaultSpan is applied to requests against streaming datasets
	// that leave the window span unset (the daemon's -window-span
	// flag).
	defaultSpan int64
	// maxWindowRows caps how many records one streaming time window
	// may hold before the job fails — the memory bound that makes
	// traces-bigger-than-RAM workloads safe to serve (a too-coarse
	// span would otherwise materialize the whole trace in one table).
	// It also caps a request's records, refused at Submit.
	maxWindowRows int
	// metrics is the service instrument hub (never nil — NewQueue
	// builds a private one when the caller passes none); its
	// EngineMetrics is wired into every job config. log receives job
	// lifecycle lines (never nil either).
	metrics *serveMetrics
	log     *slog.Logger

	mu    sync.Mutex
	next  int
	cache map[string]*Job // (dataset, Config-sans-Workers, Seed) → admitted job
	order []*Job          // admission order, for maxJobs sweeps
	// jobs has its own read-write lock (acquired q.mu → jobsMu, never
	// the reverse): admissions hold q.mu across the journal fsync by
	// design — the ledger charge, cache insert, and enqueue must be
	// atomic — but a status poll must never wait on another request's
	// disk flush.
	jobsMu   sync.RWMutex
	jobs     map[string]*Job
	retained []*Job // done jobs still holding their result, oldest first
	backlog  int    // jobs admitted but not yet picked up by a runner
	closed   bool

	pending chan *Job
	wg      sync.WaitGroup
}

// validBucketRange checks a declared [lo, hi] bucket range: non-empty
// and at most maxWindows wide. The width check subtracts in uint64 —
// lo ≤ hi makes the two's-complement difference the true distance —
// so a range like [MinInt64, MaxInt64] cannot overflow its way past
// the cap (the finished-job report enumerates the range, and an
// unbounded one would loop forever).
func validBucketRange(lo, hi *int64) error {
	if lo == nil || hi == nil {
		return nil
	}
	if *lo > *hi {
		return fmt.Errorf("serve: declared bucket range [%d, %d] is empty", *lo, *hi)
	}
	if uint64(*hi)-uint64(*lo) >= uint64(maxWindows) {
		return fmt.Errorf("serve: declared bucket range [%d, %d] spans more than the %d-window cap", *lo, *hi, maxWindows)
	}
	return nil
}

// maxWindows caps a job's window count: beyond it the per-window
// pipelines are noise-dominated and the job metadata (per-window
// progress, spool chunks) stops being worth tracking. A span job's
// window count is data-dependent and unknown until the job runs, so
// runWindowed fails the job when it crosses the cap (a window_span of
// 1 against fine-grained timestamps would otherwise spin up one
// pipeline per distinct timestamp); declared bucket ranges and feed
// epochs are held to it up front.
const maxWindows = 4096

// maxIterations caps a request's GUM rounds. The paper runs 200, and
// alpha's geometric decay leaves no record moving long before this.
const maxIterations = 1_000_000

// defaultMaxWindowRows bounds a streaming time window's record count
// when the operator does not choose a cap: ~1M rows keeps one
// window's working set in the hundreds of MB for the canonical
// schemas while still letting realistic spans through.
const defaultMaxWindowRows = 1 << 20

// QueueOptions configures NewQueue.
type QueueOptions struct {
	// Runners is the max concurrent jobs (≤ 0 means 2); WorkersTotal
	// the engine-worker budget they share (≤ 0 means all cores). The
	// worker budget is a hard upper bound on total synthesis
	// parallelism: when it is smaller than the requested job
	// concurrency, the runner count is reduced to match rather than
	// overcommitting one worker per job.
	Runners, WorkersTotal int
	// Store makes admissions and terminals durable; nil keeps the
	// queue volatile.
	Store *persist.Store
	// DefaultSpan (≥ 0) fills in the window span for requests against
	// streaming datasets that omit it.
	DefaultSpan int64
	// MaxWindowRows caps a streaming time window's records and a
	// request's records (≤ 0 means the ~1M default).
	MaxWindowRows int
	// MaxResults bounds retained results — in memory and in the
	// results/ spool (≤ 0 means 256). ResultTTL additionally evicts
	// results older than it (0 = no age sweep). Both preserve the 410
	// Gone + zero-cost-resubmit contract.
	MaxResults int
	ResultTTL  time.Duration
	// Metrics is the service instrument hub to feed (nil = a private
	// registry, so standalone queues stay instrumented-but-unscraped).
	// Logger receives job lifecycle lines (nil = slog.Default()).
	Metrics *serveMetrics
	Logger  *slog.Logger
}

// NewQueue starts a job queue over the registry. See QueueOptions.
func NewQueue(reg *Registry, opts QueueOptions) *Queue {
	runners, workersTotal := opts.Runners, opts.WorkersTotal
	if runners <= 0 {
		runners = 2
	}
	if workersTotal <= 0 {
		workersTotal = runtime.GOMAXPROCS(0)
	}
	if runners > workersTotal {
		runners = workersTotal
	}
	perJob := workersTotal / runners
	defaultSpan := opts.DefaultSpan
	if defaultSpan < 0 {
		defaultSpan = 0
	}
	maxWindowRows := opts.MaxWindowRows
	if maxWindowRows <= 0 {
		maxWindowRows = defaultMaxWindowRows
	}
	maxResults := opts.MaxResults
	if maxResults <= 0 {
		maxResults = 256
	}
	metrics := opts.Metrics
	if metrics == nil {
		metrics = newServeMetrics(nil)
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	q := &Queue{
		reg:           reg,
		perJob:        perJob,
		maxBacklog:    1024,
		maxResults:    maxResults,
		resultTTL:     opts.ResultTTL,
		maxJobs:       4096,
		store:         opts.Store,
		defaultSpan:   defaultSpan,
		maxWindowRows: maxWindowRows,
		metrics:       metrics,
		log:           logger,
		sweepStop:     make(chan struct{}),
		jobs:          make(map[string]*Job),
		cache:         make(map[string]*Job),
	}
	q.pending = make(chan *Job, q.maxBacklog)
	for i := 0; i < runners; i++ {
		q.wg.Add(1)
		go q.runner()
	}
	if q.resultTTL > 0 {
		q.wg.Add(1)
		go q.ttlSweeper()
	}
	return q
}

// ttlSweeper ages results out of the retention window: every quarter
// TTL (clamped to a sane tick) it evicts retained results whose jobs
// finished more than resultTTL ago — memory dropped, spool file
// deleted, 410 Gone thereafter.
func (q *Queue) ttlSweeper() {
	defer q.wg.Done()
	tick := q.resultTTL / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick > 30*time.Second {
		tick = 30 * time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-q.sweepStop:
			return
		case <-t.C:
			q.sweepExpired(time.Now().Add(-q.resultTTL))
		}
	}
}

// sweepExpired evicts retained results whose jobs finished before the
// cutoff. Retention order is finish order, so the expired jobs are a
// prefix.
func (q *Queue) sweepExpired(cutoff time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.retained) > 0 {
		old := q.retained[0]
		old.mu.Lock()
		expired := !old.finished.IsZero() && old.finished.Before(cutoff)
		if expired {
			evictResultLocked(old)
		}
		old.mu.Unlock()
		if !expired {
			return
		}
		q.retained[0] = nil
		q.retained = q.retained[1:]
	}
}

// trimRetainedLocked evicts the oldest retained results past
// maxResults. Caller holds q.mu.
func (q *Queue) trimRetainedLocked() {
	for len(q.retained) > q.maxResults {
		old := q.retained[0]
		q.retained[0] = nil
		q.retained = q.retained[1:]
		old.mu.Lock()
		evictResultLocked(old)
		old.mu.Unlock()
	}
}

// evictResultLocked drops a done job's result from every backend: the
// in-memory table, a memory spool's buffer, and a file spool's
// results/ file. The job's metadata and cache entry survive, so
// result.csv answers 410 Gone and an identical resubmit regenerates
// deterministically at zero charge. Caller holds the job's mu.
func evictResultLocked(j *Job) {
	j.result = nil
	if j.spool == nil {
		return
	}
	if j.spool.drop() {
		j.spool = nil // memory spool: buffer gone with it
		return
	}
	j.spool.evict() // file spool: delete the results/ file
}

// SubmitRequest shapes a synthesis admission beyond the pipeline
// Config: the windowing and, optionally, a declared bucket range.
type SubmitRequest struct {
	// Span selects time-span windowing; see Submit for its ledger cost.
	Span int64
	// Follow requests a live-feed follow job (feed datasets only):
	// the job synthesizes each window of the current feed epoch as it
	// lands and finishes when the feed is sealed.
	Follow bool
	// BucketLo/Hi declare the expected bucket range of a span job:
	// the finished job reports declared-but-empty buckets explicitly,
	// and a window outside the range fails the job. Follow jobs
	// inherit the feed's declared range instead.
	BucketLo, BucketHi *int64
}

// jobCacheKey identifies a synthesis release in the result cache. It
// includes the windowing: a span release and a whole-trace release of
// the same Config are different outputs (each window is synthesized
// from its own marginals). Follow jobs key on the feed epoch too — the
// same Config against a later epoch consumes different records and is
// a new release.
func jobCacheKey(datasetID string, cfg netdpsyn.Config, span int64, follow bool, epoch int) string {
	return fmt.Sprintf("%s|%s|span=%d|follow=%t|epoch=%d", datasetID, configKey(cfg), span, follow, epoch)
}

// admissionPrice is what Submit charges for a synthesis release at
// cfg: rho is one release's ρ, and admit the part of it charged on
// the scalar axis at admission — all of it for a whole-trace release,
// 0 for span and follow jobs, whose windows charge rho to their own
// keys as they are released (see Submit). Recovery compares admit with
// a journaled admission's ρ to decide whether the job may be served
// from the result cache (see restoreJobs).
func admissionPrice(cfg netdpsyn.Config, span int64, follow bool) (rho, admit float64, err error) {
	rho, err = netdpsyn.RhoFromEpsDelta(cfg.Epsilon, cfg.Delta)
	if err != nil || span > 0 || follow {
		return rho, 0, err
	}
	return rho, rho, nil
}

// Submit admits a synthesis request against a dataset: it validates
// the configuration, returns the already-admitted job on a cache hit
// (no new budget spend), otherwise charges the dataset ledger and
// enqueues a fresh job. The bool reports whether the result was
// served from cache.
//
// Windowed jobs cut fixed time spans, and their ledger cost follows
// the parallel composition argument that rule supports:
//
//   - span > 0 (time-span windows): the trace is cut into fixed time
//     buckets — a record with timestamp ts belongs to bucket
//     ⌊ts/span⌋, a function of that record alone. Membership is
//     data-independent, which is the hypothesis of the parallel
//     composition theorem: every record influences exactly one
//     window's release (and every window's seed is derived from its
//     bucket number, not from how many records other windows hold).
//     The admission itself charges nothing; each window charges one
//     window's ρ to its own (span, bucket) ledger key as it is
//     released, and the ledger position counts the MAX across a
//     span's keys — so a whole span release costs one window's ρ,
//     exactly the scalar price of a whole-trace release, while the
//     per-key structure is what lets a later epoch re-release one
//     bucket and pay only on that key. Residual disclosure: which
//     buckets are non-empty is visible — empty buckets release
//     nothing, and the per-key ledger/journal name the released
//     buckets (see the charge gate).
//   - follow (live feeds): span windows whose trace arrives over
//     time. Same per-key accounting; the job runs until the feed
//     epoch is sealed.
//
// Without a span, an in-memory dataset runs one whole-trace release
// charged ρ on the scalar axis. Streaming datasets accept only span
// windows (their trace is never loaded whole); feed datasets accept
// only follow jobs.
func (q *Queue) Submit(d *Dataset, cfg netdpsyn.Config, sr SubmitRequest) (*Job, bool, error) {
	// The engine sizes its per-round error log by the iteration count
	// and its synthetic table by the record count before the first
	// round, so an oversized request would die in the runner with an
	// out-of-memory fatal error (no recover catches it) after its ρ
	// was charged. Refuse both before anything is charged.
	if cfg.UpdateIterations > maxIterations {
		return nil, false, fmt.Errorf("serve: iterations must be at most %d, got %d", maxIterations, cfg.UpdateIterations)
	}
	if cfg.SynthRecords > q.maxWindowRows {
		return nil, false, fmt.Errorf("serve: records must be at most the %d-row window cap, got %d", q.maxWindowRows, cfg.SynthRecords)
	}
	span := sr.Span
	if span < 0 {
		return nil, false, fmt.Errorf("serve: window_span must be non-negative, got %d", span)
	}
	if (sr.BucketLo == nil) != (sr.BucketHi == nil) {
		return nil, false, fmt.Errorf("serve: declare both bucket_lo and bucket_hi, or neither")
	}
	bucketLo, bucketHi := sr.BucketLo, sr.BucketHi
	var feed *netdpsyn.WindowFeed
	epoch := 0
	switch {
	case sr.Follow:
		if span > 0 {
			return nil, false, fmt.Errorf("serve: a follow job takes its windowing from the feed; leave window_span unset")
		}
		if bucketLo != nil {
			return nil, false, fmt.Errorf("serve: a follow job inherits the feed's declared bucket range; declare it at registration")
		}
		var err error
		if feed, epoch, err = d.currentFeed(); err != nil {
			return nil, false, err
		}
		span = d.FeedSpan()
		bucketLo, bucketHi = d.DeclaredRange()
	case d.Feed():
		return nil, false, fmt.Errorf("serve: dataset %s is a live window feed: synthesis follows the feed (set \"follow\": true)", d.ID)
	case d.Streaming():
		if span == 0 {
			span = q.defaultSpan
		}
		if span <= 0 {
			return nil, false, fmt.Errorf("serve: dataset %s is streaming-registered: synthesis must be windowed by time span (set \"window_span\" in the request, or start the daemon with -window-span)", d.ID)
		}
	}
	if bucketLo != nil && !sr.Follow && span == 0 {
		return nil, false, fmt.Errorf("serve: a declared bucket range needs window_span (buckets are spans of it)")
	}
	if err := validBucketRange(bucketLo, bucketHi); err != nil {
		return nil, false, err
	}
	if span > 0 && !d.Schema().Has(netdpsyn.FieldTS) {
		return nil, false, fmt.Errorf("serve: windowed synthesis needs a %q field in the %s schema", netdpsyn.FieldTS, d.Kind)
	}
	// Normalize zero values to the pipeline defaults (taken from
	// core.DefaultConfig so they can never drift from what the
	// pipeline actually runs): a request spelling the defaults out
	// and a request leaving them zero are the same release, must
	// share one cache entry, and must be charged once.
	dc := core.DefaultConfig()
	if cfg.Epsilon == 0 {
		cfg.Epsilon = dc.Epsilon
	}
	if cfg.Delta == 0 {
		cfg.Delta = dc.Delta
	}
	if cfg.UpdateIterations == 0 {
		cfg.UpdateIterations = dc.GUM.Iterations
	}
	if cfg.Tau == 0 {
		cfg.Tau = dc.Tau
	}
	if cfg.KeyAttr == "" {
		// The pipeline resolves an empty KeyAttr to the schema's
		// label field; resolve it here too so spelling the default
		// out does not split the cache key.
		cfg.KeyAttr = d.labelField()
	}
	cfg.Workers = q.perJob
	// Wire the engine instruments into the job's config; they are
	// excluded from the cache/journal identity (json:"-", and
	// configKey skips them).
	cfg.Metrics = q.metrics.Engine()

	// Validate the config before any budget charge, so a malformed
	// request costs nothing.
	if _, err := netdpsyn.New(cfg); err != nil {
		return nil, false, err
	}
	// The ledger charge follows the composition argument (see the
	// Submit doc): a whole-trace release charges ρ on the scalar axis;
	// span and follow windows compose in parallel per window key, so
	// their admission charges 0 and gates on one window's ρ (an
	// admission that could not afford a single fresh window 403s up
	// front).
	rho, admitRho, err := admissionPrice(cfg, span, sr.Follow)
	if err != nil {
		return nil, false, err
	}

	key := jobCacheKey(d.ID, cfg, span, sr.Follow, epoch)
	// The whole admission — cache probe, charge, registration, and the
	// (non-blocking) enqueue — happens under one critical section.
	// That keeps three races out: Submit can never send on a channel
	// Shutdown closed (close also takes q.mu), a concurrent identical
	// request can never cache-hit a job that is about to be failed for
	// a full backlog, and the ledger charge and cache insert are atomic.
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, false, ErrQueueClosed
	}
	if prev, ok := q.cache[key]; ok {
		switch {
		case prev.State() == JobFailed:
			// A failed job can linger here in the window between
			// fail() marking it and evicting it; never serve that as
			// a hit.
			delete(q.cache, key)
		case q.backlog < q.maxBacklog && prev.resurrect():
			// Done but no longer servable (evicted, or its result file
			// lost): re-enqueue the same deterministic computation at
			// zero charge.
			q.attachSpool(prev)
			q.backlog++
			q.pending <- prev
			q.metrics.cacheHits.Inc()
			return prev, true, nil
		default:
			q.metrics.cacheHits.Inc()
			return prev, true, nil
		}
	}
	j := &Job{
		DatasetID: d.ID,
		Rho:       rho,
		Span:      span,
		Follow:    sr.Follow,
		Epoch:     epoch,
		feed:      feed,
		bucketLo:  bucketLo,
		bucketHi:  bucketHi,
		cfg:       cfg,
		cacheKey:  key,
	}
	if admitRho > 0 {
		// A whole-trace release pays for its one window here.
		j.charged = map[int64]float64{0: admitRho}
	}
	// Per-key jobs admit at ρ 0 — their windows journal
	// WindowChargeRecords before each window runs (see windowGate).
	err = q.admitLocked(j, func() error {
		var rec *persist.ChargeRecord
		if q.store != nil {
			rec = &persist.ChargeRecord{
				JobID:     j.ID,
				DatasetID: d.ID,
				Rho:       admitRho,
				Config:    cfg,
				Submitted: j.Submitted,
				Span:      span,
				Follow:    sr.Follow,
				Epoch:     epoch,
			}
		}
		return d.Budget().ChargeAdmission(rho, admitRho, rec)
	}, slog.Int64("span", span), slog.Bool("follow", sr.Follow))
	if err != nil {
		return nil, false, err
	}
	q.metrics.cacheMisses.Inc()
	return j, false, nil
}

// admitLocked is the admission tail shared by synthesis and evaluation
// jobs, run under q.mu after the caller's own validation. It refuses a
// full backlog before anything is charged, gives j the next job id,
// and runs charge, which journals the job's admission under that id
// durably (fsync) before applying its spend — so by the time anything
// computes on this admission, the spend is already on disk. On a
// charge failure nothing was charged and the id is not consumed.
// Otherwise the job is registered (and cached, for synthesis jobs),
// enqueued, counted and logged; attrs extend the log line.
func (q *Queue) admitLocked(j *Job, charge func() error, attrs ...slog.Attr) error {
	if q.backlog >= q.maxBacklog {
		return ErrQueueFull
	}
	j.ID = fmt.Sprintf("job-%d", q.next+1)
	j.Submitted = time.Now()
	if err := charge(); err != nil {
		return err
	}
	q.next++
	j.state = JobQueued
	j.done = make(chan struct{})
	q.attachSpool(j)
	q.jobsMu.Lock()
	q.jobs[j.ID] = j
	q.jobsMu.Unlock()
	if j.cacheKey != "" {
		q.cache[j.cacheKey] = j
	}
	q.order = append(q.order, j)
	q.sweepJobs()
	q.backlog++
	// Cannot block: channel occupancy ≤ q.backlog ≤ maxBacklog == cap
	// (runners decrement backlog only after receiving).
	q.pending <- j
	q.metrics.jobsAdmitted.Inc()
	q.log.LogAttrs(context.Background(), slog.LevelInfo, "job admitted", append([]slog.Attr{
		slog.String("job", j.ID),
		slog.String("dataset", j.DatasetID),
		slog.String("kind", j.Kind()),
		slog.Float64("rho", j.Rho),
	}, attrs...)...)
	return nil
}

// backlogLen reports the number of admitted-but-unfinished jobs — the
// queue-depth gauge reads it at scrape time.
func (q *Queue) backlogLen() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.backlog
}

// stateCount reports how many known jobs sit in st; the per-state job
// gauges read it at scrape time. Lock order q.mu → j.mu matches
// Submit.
func (q *Queue) stateCount(st JobState) int {
	q.jobsMu.Lock()
	defer q.jobsMu.Unlock()
	n := 0
	for _, j := range q.jobs {
		if j.State() == st {
			n++
		}
	}
	return n
}

// attachSpool gives an admitted synthesis job its result spool:
// file-backed under the state dir when the queue is durable (the
// result then survives a restart), in-memory for windowed jobs on a
// volatile queue (so result.csv can still stream windows as they
// complete). Plain jobs on a volatile queue keep using the in-memory
// result only, and evaluation jobs journal their scores instead.
// Failure to open the file degrades to no spool — the job still runs;
// only persistence/streaming of its result is lost.
func (q *Queue) attachSpool(j *Job) {
	switch {
	case j.Evaluate:
		// No spool: the scores ride on the job's terminal record.
	case q.store != nil:
		if rs, err := newResultSpool(q.store.ResultPath(j.ID)); err == nil {
			j.mu.Lock()
			j.spool = rs
			j.mu.Unlock()
		}
	case j.windowed():
		rs, _ := newResultSpool("")
		j.mu.Lock()
		j.spool = rs
		j.mu.Unlock()
	}
}

// windowed reports whether the job releases time windows charged on
// their own ledger keys (span and follow jobs), as opposed to a plain
// job's one whole-trace window charged at admission.
func (j *Job) windowed() bool { return j.Span > 0 }

// Spool returns the job's result spool, if any.
func (j *Job) Spool() *resultSpool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.spool
}

// sweepJobs drops the oldest resultless terminal jobs once the
// metadata maps exceed maxJobs. Caller holds q.mu.
func (q *Queue) sweepJobs() {
	q.jobsMu.Lock()
	defer q.jobsMu.Unlock()
	if len(q.jobs) <= q.maxJobs {
		return
	}
	kept := q.order[:0]
	for _, old := range q.order {
		evictable := false
		if len(q.jobs) > q.maxJobs {
			old.mu.Lock()
			evictable = old.state == JobFailed || (old.state == JobDone && old.result == nil)
			old.mu.Unlock()
		}
		if !evictable {
			kept = append(kept, old)
			continue
		}
		delete(q.jobs, old.ID)
		if q.cache[old.cacheKey] == old {
			delete(q.cache, old.cacheKey)
		}
		// A forgotten job's spooled result goes with it: its id 404s,
		// so the file could never be served again anyway.
		if rs := old.Spool(); rs != nil {
			rs.remove()
		}
	}
	// Zero the dropped tail so the backing array releases the Jobs.
	for i := len(kept); i < len(q.order); i++ {
		q.order[i] = nil
	}
	q.order = kept
}

// Get looks a job up by id. It takes only the jobs-map lock, so a
// status poll never waits behind an admission's journal fsync.
func (q *Queue) Get(id string) (*Job, bool) {
	q.jobsMu.RLock()
	defer q.jobsMu.RUnlock()
	j, ok := q.jobs[id]
	return j, ok
}

// List snapshots the remembered jobs in admission order, optionally
// filtered by dataset id, state, and/or kind (""/zero means no
// filter) — the operator's view over long-lived follow deployments,
// where polling per-id stops scaling.
func (q *Queue) List(datasetID string, state JobState, kind string) []JobInfo {
	q.mu.Lock()
	order := make([]*Job, len(q.order))
	copy(order, q.order)
	q.mu.Unlock()
	out := make([]JobInfo, 0, len(order))
	for _, j := range order {
		if datasetID != "" && j.DatasetID != datasetID {
			continue
		}
		if kind != "" && j.Kind() != kind {
			continue
		}
		info := j.Snapshot()
		if state != "" && info.State != state {
			continue
		}
		out = append(out, info)
	}
	return out
}

// Shutdown stops admissions and waits for in-flight and backlogged
// jobs to drain, or for ctx to expire.
func (q *Queue) Shutdown(ctx context.Context) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil
	}
	q.closed = true
	// Closing under q.mu: Submit's send also runs under q.mu after
	// re-checking closed, so a send on the closed channel is
	// impossible.
	close(q.pending)
	close(q.sweepStop)
	q.mu.Unlock()
	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (q *Queue) runner() {
	defer q.wg.Done()
	for j := range q.pending {
		q.mu.Lock()
		q.backlog--
		q.mu.Unlock()
		// Label the job's whole execution for CPU profiling. The labeled
		// ctx threads into the synthesizer (WithProfileContext) so the
		// engine's per-stage labels MERGE with (job_kind, dataset)
		// instead of replacing them, and a -pprof profile slices by
		// dataset, job kind, AND stage
		// (`pprof -tagfocus dataset=ton,stage=gum`).
		pprof.Do(context.Background(), pprof.Labels("job_kind", j.Kind(), "dataset", j.DatasetID), func(ctx context.Context) {
			q.run(j, ctx)
		})
	}
}

// run executes one admitted job. profCtx carries the runner's pprof
// labels down into the synthesis engine; it is never a cancellation
// signal.
func (q *Queue) run(j *Job, profCtx context.Context) {
	j.mu.Lock()
	j.state = JobRunning
	j.started = time.Now()
	spool := j.spool
	j.mu.Unlock()

	d, ok := q.reg.Get(j.DatasetID)
	if !ok {
		q.fail(j, fmt.Errorf("serve: dataset %q disappeared", j.DatasetID))
		return
	}
	if j.Evaluate {
		// Evaluation jobs score a finished release instead of running
		// the pipeline (their cfg is a price, not a pipeline config).
		q.runEvaluate(j, d)
		return
	}
	records, err := q.synthesize(j, d, spool, profCtx)
	if err != nil {
		q.fail(j, err)
		return
	}
	if spool != nil {
		_ = spool.finish("")
	}
	q.finishDone(j, records)
}

// synthesize releases a synthesis job's windows through one
// SynthesizeSource call and returns the records released. The source
// is the registered table as one window (plain jobs), its fixed time
// buckets (span jobs; re-streamed from the spool for a streaming
// dataset, so the trace is never materialized), or the live feed
// captured at admission (follow jobs, which run until the epoch is
// sealed). Span and follow windows pass windowGate — charge before
// compute, per window key; a plain job paid at admission. Each
// released window is appended to the spool (one header for the whole
// file) and adds its trace entry, its stage timings and, for follow
// jobs, a free rolling-quality entry that reads only released windows.
func (q *Queue) synthesize(j *Job, d *Dataset, spool *resultSpool, profCtx context.Context) (int, error) {
	syn, err := netdpsyn.New(j.cfg)
	if err != nil {
		return 0, err
	}
	var src netdpsyn.WindowSource
	var opts netdpsyn.StreamOptions
	switch {
	case !j.windowed():
		src = &wholeTrace{t: d.Table()}
	case j.Follow:
		src = j.feed.Live()
	case d.Streaming():
		f, err := d.OpenSpool()
		if err != nil {
			return 0, err
		}
		defer f.Close()
		// The row cap keeps one dense bucket from materializing the
		// trace the bounded-memory path exists to avoid.
		src, err = netdpsyn.StreamWindowSource(f, d.Schema(), netdpsyn.StreamOptions{WindowSpan: j.Span, MaxWindowRows: q.maxWindowRows})
		if err != nil {
			return 0, err
		}
	default:
		if src, err = netdpsyn.TimeWindowSource(d.Table(), j.Span); err != nil {
			return 0, err
		}
	}
	if j.windowed() {
		opts.BeforeWindow = q.windowGate(j, d)
	}
	records := 0
	wroteHeader := false
	var prevWindow *netdpsyn.MarginalCounts
	err = syn.WithProfileContext(profCtx).SynthesizeSource(src, opts, func(wr netdpsyn.WindowResult) error {
		if spool != nil {
			write := wr.Table.WriteCSV
			if wroteHeader {
				write = wr.Table.WriteCSVBody
			}
			wroteHeader = true
			if err := write(spool); err != nil {
				if j.windowed() {
					return err
				}
				_ = spool.finish(err.Error()) // a plain job still holds its table in memory
			}
		}
		records += wr.Records
		// Quality is O(window rows); compute it before taking j.mu so a
		// status poll never waits on it.
		entry := WindowTrace{Records: wr.Records, Spans: spansMS(wr.Spans)}
		if j.Follow {
			cur := netdpsyn.NewMarginalCounts(wr.Table)
			entry.Quality = windowQuality(prevWindow, cur)
			prevWindow = cur
		}
		j.mu.Lock()
		entry.Window = len(j.trace)
		entry.RhoCharged = j.charged[wr.Bucket]
		if j.windowed() {
			b := wr.Bucket // &wr.Bucket would keep wr.Table alive with the trace
			entry.Bucket = &b
			j.windowsDone++
		} else {
			j.result = wr.Table
		}
		j.trace = append(j.trace, entry)
		emitted := len(j.trace)
		j.setStages(wr.Stages)
		j.mu.Unlock()
		if !j.windowed() {
			return nil
		}
		q.metrics.recordWindow(j.DatasetID, wr.Bucket, j.Follow)
		if emitted > maxWindows {
			// The span is too fine for the trace's time resolution to
			// be worth one pipeline per bucket.
			return fmt.Errorf("serve: window_span %d produced more than %d windows — choose a coarser span", j.Span, maxWindows)
		}
		return nil
	})
	return records, err
}

// wholeTrace is a plain job's source: the registered table itself as
// one window (no copy). ID 0 seeds the window with the job's Seed, so
// the release is Synthesize's byte for byte, and reporting one window
// gives that window the job's whole worker share.
type wholeTrace struct {
	t    *netdpsyn.Table
	done bool
}

func (s *wholeTrace) Windows() int { return 1 }

func (s *wholeTrace) Next() (netdpsyn.Window, error) {
	if s.done {
		return netdpsyn.Window{}, io.EOF
	}
	s.done = true
	if s.t == nil || s.t.NumRows() == 0 {
		// Synthesize's refusal: the engine would skip an empty window.
		return netdpsyn.Window{}, errors.New("netdpsyn: empty input table")
	}
	return netdpsyn.Window{ID: 0, Table: s.t}, nil
}

// windowGate is the per-window admission hook of span and follow
// jobs: it runs before a window's pipeline and charges one window's ρ
// to the (span, bucket) ledger key — journaled durably first — unless
// this job already charged that key (a resumed or resurrected job
// re-releasing the identical window pays nothing new). A window
// outside the job's declared bucket range fails here, before any
// charge.
//
// Occupancy caveat, documented at the charge site on purpose: the
// gate fires only for non-empty buckets, so the per-key ledger, the
// charge journal, and the result stream all reveal WHICH buckets held
// traffic (and nothing releases for empty ones). The (ε, δ) guarantee
// covers record values within a bucket, not the bucket's existence.
// Deployments where interval occupancy is itself sensitive should
// declare a bucket range (making the disclosure surface explicit and
// auditable via EmptyBuckets) and treat ledger/journal access as part
// of the release.
func (q *Queue) windowGate(j *Job, d *Dataset) func(bucket int64, rows int) error {
	rho := j.Rho // the per-window price
	return func(bucket int64, rows int) error {
		if (j.bucketLo != nil && bucket < *j.bucketLo) || (j.bucketHi != nil && bucket > *j.bucketHi) {
			return fmt.Errorf("%w: window bucket %d outside the declared range", ErrBucketRange, bucket)
		}
		if j.alreadyCharged(bucket) {
			return nil
		}
		var rec *persist.WindowChargeRecord
		if q.store != nil {
			rec = &persist.WindowChargeRecord{
				JobID:     j.ID,
				DatasetID: d.ID,
				Span:      j.Span,
				Bucket:    bucket,
				Rho:       rho,
			}
		}
		if err := d.Budget().ChargeWindow(j.Span, bucket, rho, rec); err != nil {
			return err
		}
		j.markCharged(bucket, rho)
		return nil
	}
}

// finishDone moves a job to done, applies the result-retention sweep,
// journals the terminal (with an evaluation job's score block), and
// wakes waiters.
func (q *Queue) finishDone(j *Job, records int) {
	j.mu.Lock()
	j.state = JobDone
	j.finished = time.Now()
	j.records = records
	// Capture the channel under the lock: once the result is set, a
	// concurrent eviction + identical Submit could resurrect the job
	// and install a fresh channel; the close must hit the channel the
	// current waiters hold.
	done := j.done
	retain := j.result != nil || j.spool != nil
	eval := j.evaluation
	j.mu.Unlock()
	if retain {
		q.mu.Lock()
		q.retained = append(q.retained, j)
		q.trimRetainedLocked()
		q.mu.Unlock()
	}
	q.journalTerminal(j.ID, string(JobDone), records, "", eval)
	close(done)
	q.log.LogAttrs(context.Background(), slog.LevelInfo, "job done",
		slog.String("job", j.ID),
		slog.String("dataset", j.DatasetID),
		slog.String("kind", j.Kind()),
		slog.Int("records", records),
	)
}

// journalTerminal records a job's terminal transition, best-effort: a
// lost terminal record makes the job replay as an interrupted charged
// failure, which is the conservative direction (the charge is
// retained either way, and a deterministic resubmit re-admits with a
// fresh conservative charge). A finished evaluation's scores ride
// along, so a restarted daemon serves them without re-reading the raw
// trace.
func (q *Queue) journalTerminal(jobID, state string, records int, errMsg string, eval *EvaluationResult) {
	if q.store == nil {
		return
	}
	var blob json.RawMessage
	if eval != nil {
		// A block that cannot marshal (a NaN score) leaves the record
		// without scores; the terminal itself still lands.
		blob, _ = json.Marshal(eval)
	}
	_ = q.store.AppendTerminal(persist.TerminalRecord{
		JobID:      jobID,
		State:      state,
		Records:    records,
		Error:      errMsg,
		Evaluation: blob,
	})
}

// fail marks a job failed and evicts it from the result cache so an
// identical request can be retried (with a fresh charge — the failed
// attempt's spend is not refunded).
func (q *Queue) fail(j *Job, err error) {
	j.mu.Lock()
	j.state = JobFailed
	j.errMsg = err.Error()
	j.finished = time.Now()
	done := j.done
	spool := j.spool
	j.mu.Unlock()
	if spool != nil {
		// Seal the spool (deleting a partial result file) so streaming
		// readers unblock with the failure instead of waiting forever.
		_ = spool.finish(err.Error())
	}
	q.mu.Lock()
	if q.cache[j.cacheKey] == j {
		delete(q.cache, j.cacheKey)
	}
	q.mu.Unlock()
	q.journalTerminal(j.ID, string(JobFailed), 0, err.Error(), nil)
	close(done)
	q.log.LogAttrs(context.Background(), slog.LevelWarn, "job failed",
		slog.String("job", j.ID),
		slog.String("dataset", j.DatasetID),
		slog.String("error", err.Error()),
	)
}

// interruptedJobError is the error surfaced on jobs whose admission
// was journaled but whose terminal never was: the daemon died with
// them in flight. Per the conservative no-refund rule their charge is
// retained; they are never silently re-run (an identical resubmit is
// a fresh admission with a fresh charge).
const interruptedJobError = "interrupted by a daemon restart before completion; its ρ charge is retained (no refund)"

// restoreJobs installs recovered synthesis and evaluation jobs: done
// jobs come back as done — a synthesis job with its persisted result
// file or as done-with-evicted-result, an evaluation with its
// journaled scores — failed jobs keep their error, and
// charged-but-unfinished jobs become charged failures — EXCEPT
// unfinished follow jobs whose feed epoch survived, which RESUME: the
// feed was rebuilt from journaled windows, the job's per-key charge
// positions are exact (ChargedBuckets), so it re-runs from the
// epoch's first window, skips the charge for every bucket it already
// paid for (the identical deterministic computation), and picks up at
// the next bucket — new arrivals charge normally. Runs at boot before
// the queue is visible to requests.
//
// One rule decides which recovered done jobs re-enter the result
// cache: those whose journaled admission ρ equals what Submit charges
// today for the same (config, span, follow) — admissionPrice. Older
// journals fail it (a span admission charged ρ on the scalar axis,
// where Submit now charges 0; a count-window job charged windows × ρ),
// and so would any later price change: such a job keeps its spend and
// metadata, and an identical resubmit is a fresh admission, never a
// zero-cost re-run under accounting that did not pay for it.
// Evaluations are never cached.
func (q *Queue) restoreJobs(jobs []persist.JobState, info *RecoveryInfo) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := range jobs {
		js := &jobs[i]
		j := &Job{
			ID:        js.JobID,
			DatasetID: js.DatasetID,
			Submitted: js.Submitted,
			Rho:       js.Rho,
			done:      make(chan struct{}),
		}
		cacheable := false
		if ec := js.Eval; ec != nil {
			j.Evaluate = true
			j.TargetJobID = ec.TargetJob
			j.evalReq = EvaluationRequest{
				JobID:   ec.TargetJob,
				Metrics: ec.Metrics,
				Models:  ec.Models,
				Epsilon: ec.Epsilon,
				Delta:   ec.Delta,
				Seed:    ec.Seed,
			}
			j.cfg = netdpsyn.Config{Epsilon: ec.Epsilon, Delta: ec.Delta, Seed: ec.Seed}
		} else {
			j.Span, j.Follow, j.Epoch = js.Span, js.Follow, js.Epoch
			j.cfg = js.Config
			j.cfg.Workers = q.perJob // this generation's worker split, not the old one's
			j.cfg.Metrics = q.metrics.Engine()
			j.cacheKey = jobCacheKey(js.DatasetID, j.cfg, js.Span, js.Follow, js.Epoch)
			if rho, admit, err := admissionPrice(j.cfg, js.Span, js.Follow); err == nil && admit == js.Rho {
				// The job paid today's price: its reported Rho is the
				// per-release ρ (span and follow admissions journal 0).
				j.Rho = rho
				cacheable = true
			}
			for _, b := range js.ChargedBuckets {
				j.markCharged(b, 0)
			}
		}
		resumed := false
		switch js.State {
		case string(JobDone):
			close(j.done)
			j.state = JobDone
			j.records = js.Records
			j.windowsDone = len(js.ChargedBuckets)
			if len(js.Evaluation) > 0 {
				var res EvaluationResult
				if err := json.Unmarshal(js.Evaluation, &res); err == nil {
					j.evaluation = &res
				}
			}
			// A persisted result lets the restarted daemon serve
			// result.csv directly instead of regenerating. The file is
			// only trusted under a journaled done terminal: the spool is
			// fsync'd before that record is appended, so its presence
			// plus the terminal implies completeness.
			if q.store != nil {
				if fi, err := os.Stat(q.store.ResultPath(j.ID)); err == nil {
					j.spool = recoveredResultSpool(q.store.ResultPath(j.ID), fi.Size())
					j.finished = fi.ModTime() // retention age of the recovered file
					info.PersistedResults++
				}
			}
		case string(JobFailed):
			close(j.done)
			j.state = JobFailed
			j.errMsg = js.Error
			if q.store != nil {
				// A failed job's partial result file (crash between the
				// terminal record and the cleanup) is dead weight.
				_ = os.Remove(q.store.ResultPath(j.ID))
			}
		default:
			// Admitted (charged, durably) but no terminal record. A
			// result file the crash left behind is untrusted (no done
			// terminal ⇒ possibly torn) and deleted; resumed follow
			// jobs rebuild theirs from window zero.
			if q.store != nil {
				_ = os.Remove(q.store.ResultPath(j.ID))
			}
			if js.Follow && q.backlog < q.maxBacklog {
				if d, ok := q.reg.Get(js.DatasetID); ok {
					if feed, epoch, err := d.currentFeed(); err == nil && epoch == js.Epoch {
						j.feed = feed
						j.bucketLo, j.bucketHi = d.DeclaredRange()
						j.state = JobQueued
						q.attachSpool(j)
						q.backlog++
						resumed = true
						info.ResumedFollowJobs++
					}
				}
			}
			if !resumed {
				// The conservative fallback (evaluations, non-follow
				// jobs, vanished datasets, superseded epochs): a charged
				// failure, never a silent re-run — a raw-data pass or a
				// release may have partially happened before the crash.
				close(j.done)
				j.state = JobFailed
				j.errMsg = interruptedJobError
				info.InterruptedJobs++
				// Converge the journal: next restart replays it as a
				// plain failure without re-counting it as interrupted.
				q.journalTerminal(j.ID, string(JobFailed), 0, j.errMsg, nil)
			}
		}
		if n, err := strconv.Atoi(strings.TrimPrefix(j.ID, "job-")); err == nil && n > q.next {
			q.next = n
		}
		q.jobsMu.Lock()
		q.jobs[j.ID] = j
		q.jobsMu.Unlock()
		q.order = append(q.order, j)
		if (j.state == JobDone && cacheable) || resumed {
			// Done: the job replays as done (its result persisted or
			// evicted) and an identical resubmit serves or regenerates
			// it at zero charge. Resumed: an identical submit must hit
			// the running job, not admit a duplicate.
			q.cache[j.cacheKey] = j
		}
		if j.state == JobDone && j.spool != nil {
			// Recovered results join the retention window so the
			// count/TTL policy governs them too.
			q.retained = append(q.retained, j)
		}
		info.Jobs++
		if resumed {
			// Enqueue after the maps are consistent. The channel has
			// maxBacklog capacity and backlog was checked above, so
			// this cannot block.
			q.pending <- j
		}
	}
	// The recovered retention set may exceed the cap (a prior
	// generation with a larger -max-results, or accumulated files):
	// apply the count policy now, oldest first.
	sort.Slice(q.retained, func(a, b int) bool { return q.retained[a].finished.Before(q.retained[b].finished) })
	q.trimRetainedLocked()
}
