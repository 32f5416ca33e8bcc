package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	netdpsyn "github.com/netdpsyn/netdpsyn"
	"github.com/netdpsyn/netdpsyn/internal/obs"
	"github.com/netdpsyn/netdpsyn/internal/serve/persist"
	"github.com/netdpsyn/netdpsyn/internal/trace"
)

// Options configures the service.
type Options struct {
	// Addr is the listen address (e.g. ":8090").
	Addr string
	// Workers is the global engine-worker budget shared across
	// concurrent jobs (≤ 0 means all cores).
	Workers int
	// MaxConcurrentJobs bounds how many synthesis jobs run at once
	// (≤ 0 means 2).
	MaxConcurrentJobs int
	// DefaultBudgetEps/DefaultBudgetDelta set the per-dataset
	// cumulative privacy ceiling used when a registration does not
	// override it: the ceiling ρ is RhoFromEpsDelta of this pair.
	// Zero values default to ε = 8, δ = 1e-5.
	DefaultBudgetEps   float64
	DefaultBudgetDelta float64
	// MaxUploadBytes bounds dataset upload size (≤ 0 means 256 MiB).
	MaxUploadBytes int64
	// MaxDatasets bounds the registry — each dataset pins its table
	// in memory for the daemon's lifetime (≤ 0 means 64).
	MaxDatasets int
	// StateDir, when non-empty, makes the service restart-safe: the
	// budget ledger, dataset registry, and job journal are persisted
	// there (append-only journal + compacted snapshots + a CSV spool),
	// every charge fsync'd before its job runs, and finished results
	// spooled under results/ so a restart serves them directly. Empty
	// keeps all state in memory — a restart then forgets cumulative
	// spend, which is a privacy bug for any deployment that outlives
	// its process.
	StateDir string
	// DefaultWindowSpan fills in the time-window span for synthesis
	// requests against streaming datasets that omit it (0 = no
	// default; such requests are rejected).
	DefaultWindowSpan int64
	// MaxWindowRows caps how many records one streaming time window
	// may hold before the job fails (≤ 0 = a ~1M-row default) — the
	// memory bound for traces bigger than RAM. A synthesis request
	// asking for more records is refused with 400.
	MaxWindowRows int
	// AllowVolatileStream accepts streaming registrations (?stream=1)
	// without a StateDir by spooling the upload to a process-lifetime
	// temp dir. The trace still never touches RAM whole, but nothing
	// survives a restart — including the spool and the ledger.
	AllowVolatileStream bool
	// AllowVolatileFeed accepts live window-feed registrations
	// (?feed=1) without a StateDir: window arrivals and per-key
	// charges then live in memory only and die with the process —
	// fine for tests and demos, a privacy bug for any deployment
	// whose feed outlives its process.
	AllowVolatileFeed bool
	// SealAfter, when positive, auto-seals a live feed once no window
	// has arrived for that long: follow jobs then drain and finish
	// instead of waiting forever on a producer that went away. The
	// next PUT reopens the feed under a new epoch.
	SealAfter time.Duration
	// MaxResults bounds retained results (≤ 0 means 256). Each
	// finished synthesis job keeps its release in one spool — a file
	// under results/ with a StateDir, memory without one — and this
	// bounds the spools; evicted results answer 410 Gone and
	// regenerate on an identical resubmit at zero budget cost.
	// ResultTTL additionally evicts results older than it (0 = no age
	// sweep).
	MaxResults int
	ResultTTL  time.Duration
	// Logger receives the service's structured log lines (nil =
	// slog.Default()). Every request-scoped line carries the
	// request_id the tracing middleware assigned.
	Logger *slog.Logger
	// Obs is the metrics registry /metrics renders (nil = a fresh
	// private registry). Pass one to mirror the exposition elsewhere
	// (the daemon mounts it on the -pprof side listener too).
	Obs *obs.Registry
}

// Server is the netdpsynd HTTP service: a dataset registry, a
// per-dataset budget ledger, and an async job queue behind a JSON
// API.
//
//	POST /datasets                           register a CSV trace (body = CSV)
//	GET  /datasets                           list datasets
//	GET  /datasets/{id}                      one dataset's metadata + budget
//	GET  /datasets/{id}/budget               the cumulative zCDP ledger
//	PUT  /datasets/{id}/windows/{bucket}     publish one live-feed window (body = CSV)
//	POST /datasets/{id}/seal                 seal a live feed's current epoch
//	POST /datasets/{id}/synthesize           submit a synthesis job (JSON body)
//	POST /datasets/{id}/evaluate             score a finished release (JSON body)
//	GET  /jobs                               list jobs (?dataset=&status=&kind=)
//	GET  /jobs/{id}                          poll a job
//	GET  /jobs/{id}/result.csv               fetch a finished job's trace
//	GET  /healthz                            liveness
//	GET  /readyz                             readiness (503 while booting/draining)
//	GET  /metrics                            Prometheus text exposition
type Server struct {
	opts     Options
	reg      *Registry
	queue    *Queue
	store    *persist.Store // nil when StateDir is empty
	recovery *RecoveryInfo  // nil when StateDir is empty
	mux      *http.ServeMux
	handler  http.Handler // mux wrapped in the observability middleware
	http     *http.Server
	log      *slog.Logger
	metrics  *serveMetrics

	// ready gates /readyz: false until recovery and wiring finish,
	// false again the moment Shutdown begins (so a load balancer
	// drains the instance while in-flight work completes). /healthz
	// stays pure liveness and never flips.
	ready atomic.Bool

	// sealStop ends the -seal-after idle sweeper (nil when disabled).
	sealStop chan struct{}
	sealWG   sync.WaitGroup

	// draining (under putMu) refuses window PUTs once Shutdown begins;
	// puts counts the PUTs already inside their handler, which land
	// before Shutdown seals the feeds.
	putMu    sync.Mutex
	draining bool
	puts     sync.WaitGroup

	// tmpSpool backs volatile streaming registrations (no state dir):
	// created lazily, removed at Shutdown.
	tmpSpoolOnce sync.Once
	tmpSpoolDir  string
	tmpSpoolErr  error
}

// NewServer wires the service together; call ListenAndServe (or mount
// Handler in a test server) to serve it. With Options.StateDir set it
// recovers durable state first and can fail (unreadable dir, corrupt
// snapshot); Recovery then reports what was restored.
func NewServer(opts Options) (*Server, error) {
	if opts.DefaultBudgetEps == 0 {
		opts.DefaultBudgetEps = 8.0
	}
	if opts.DefaultBudgetDelta == 0 {
		opts.DefaultBudgetDelta = 1e-5
	}
	if opts.MaxUploadBytes <= 0 {
		opts.MaxUploadBytes = 256 << 20
	}
	var (
		store *persist.Store
		state *persist.State
	)
	if opts.StateDir != "" {
		var err error
		store, state, err = persist.Open(opts.StateDir)
		if err != nil {
			return nil, fmt.Errorf("serve: open state dir %s: %w", opts.StateDir, err)
		}
	}
	s := &Server{
		opts:  opts,
		reg:   NewRegistry(opts.MaxDatasets, store),
		store: store,
		mux:   http.NewServeMux(),
	}
	s.log = opts.Logger
	if s.log == nil {
		s.log = slog.Default()
	}
	s.metrics = newServeMetrics(opts.Obs)
	if store != nil {
		s.metrics.observeStore(store)
	}
	s.queue = NewQueue(s.reg, QueueOptions{
		Runners:       opts.MaxConcurrentJobs,
		WorkersTotal:  opts.Workers,
		Store:         store,
		DefaultSpan:   opts.DefaultWindowSpan,
		MaxWindowRows: opts.MaxWindowRows,
		MaxResults:    opts.MaxResults,
		ResultTTL:     opts.ResultTTL,
		Metrics:       s.metrics,
		Logger:        s.log,
	})
	if state != nil {
		s.recovery = restoreState(s.reg, s.queue, store, state)
	}
	// Recovered datasets get their budget/feed gauges now; datasets
	// registered over HTTP get theirs in handleRegister.
	for _, d := range s.reg.List() {
		s.metrics.observeDataset(d)
	}

	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.Handle("GET /metrics", s.metrics.reg.Handler())
	s.mux.HandleFunc("POST /datasets", s.handleRegister)
	s.mux.HandleFunc("GET /datasets", s.handleListDatasets)
	s.mux.HandleFunc("GET /datasets/{id}", s.handleDataset)
	s.mux.HandleFunc("GET /datasets/{id}/budget", s.handleBudget)
	s.mux.HandleFunc("PUT /datasets/{id}/windows/{bucket}", s.handleWindowPut)
	s.mux.HandleFunc("POST /datasets/{id}/seal", s.handleSeal)
	s.mux.HandleFunc("POST /datasets/{id}/synthesize", s.handleSynthesize)
	s.mux.HandleFunc("POST /datasets/{id}/evaluate", s.handleEvaluate)
	s.mux.HandleFunc("GET /jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /jobs/{id}/result.csv", s.handleJobResult)

	if opts.SealAfter > 0 {
		s.sealStop = make(chan struct{})
		s.sealWG.Add(1)
		go s.idleSealer(opts.SealAfter)
	}
	s.metrics.observeQueue(s.queue)
	s.metrics.observeServer(s)

	s.handler = s.withObservability(s.mux)
	s.http = &http.Server{Addr: opts.Addr, Handler: s.handler}
	// Ready only now: recovery replayed, gauges wired, routes mounted.
	s.ready.Store(true)
	return s, nil
}

// handleReady is the readiness probe: 503 while the server is not
// accepting work (before recovery completes, and again once Shutdown
// begins draining). Distinct from /healthz on purpose — an instance
// mid-drain is alive but must fall out of the load balancer.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// idleSealer implements -seal-after: a feed with no arrival for the
// idle window is sealed so its follow jobs finish.
func (s *Server) idleSealer(idle time.Duration) {
	defer s.sealWG.Done()
	tick := idle / 4
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
		case <-s.sealStop:
			return
		case <-t.C:
			for _, d := range s.reg.List() {
				d.sealIfIdle(idle, s.store)
			}
		}
	}
}

// Handler exposes the route table (wrapped in the request-tracing /
// metrics middleware), for tests via httptest.Server.
func (s *Server) Handler() http.Handler { return s.handler }

// MetricsHandler exposes the Prometheus exposition alone, for
// mirroring on a side listener (the daemon mounts it next to pprof on
// the loopback-only profiling port).
func (s *Server) MetricsHandler() http.Handler { return s.metrics.reg.Handler() }

// Recovery reports what NewServer restored from the state dir, or nil
// when the service runs without one (or started fresh — a fresh dir
// recovers zero of everything).
func (s *Server) Recovery() *RecoveryInfo { return s.recovery }

// ListenAndServe serves until Shutdown; it returns nil after a clean
// shutdown.
func (s *Server) ListenAndServe() error {
	return serveErr(s.http.ListenAndServe())
}

// Serve is ListenAndServe on a caller-provided listener.
func (s *Server) Serve(ln net.Listener) error {
	return serveErr(s.http.Serve(ln))
}

func serveErr(err error) error {
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// volatileSpoolDir lazily creates the process-lifetime temp dir that
// backs streaming registrations without a state dir.
func (s *Server) volatileSpoolDir() (string, error) {
	s.tmpSpoolOnce.Do(func() {
		s.tmpSpoolDir, s.tmpSpoolErr = os.MkdirTemp("", "netdpsynd-spool-")
	})
	return s.tmpSpoolDir, s.tmpSpoolErr
}

// Shutdown stops accepting requests, lets window PUTs already inside
// their handler land, seals every live feed (so follow jobs drain and
// finish — a journaled seal: after a restart the epoch stays closed
// and the next PUT opens a fresh one), waits for open connections,
// drains the job queue so admitted (budget-charged) jobs finish
// before the process exits, then compacts and closes the durable
// store so the next boot replays a snapshot instead of a long
// journal.
//
// The seal must not wait on open connections: a follower streaming a
// follow job's result.csv holds its connection until the job ends,
// and the job ends only once its feed is sealed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false) // fail /readyz first so load balancers drain us
	httpDone := make(chan error, 1)
	go func() { httpDone <- s.http.Shutdown(ctx) }()
	s.putMu.Lock()
	s.draining = true
	s.putMu.Unlock()
	putsDone := make(chan struct{})
	go func() {
		s.puts.Wait()
		close(putsDone)
	}()
	select {
	case <-putsDone:
	case <-ctx.Done():
	}
	if s.sealStop != nil {
		close(s.sealStop)
		s.sealWG.Wait()
	}
	for _, d := range s.reg.List() {
		if d.Feed() {
			_, _ = d.SealFeed(s.store) // best-effort: the drain below needs follow jobs unblocked
		}
	}
	httpErr := <-httpDone
	queueErr := s.queue.Shutdown(ctx)
	if s.store != nil {
		// Best-effort: an uncompacted journal replays identically,
		// just slower.
		_ = s.store.Compact()
		_ = s.store.Close()
	}
	if s.tmpSpoolDir != "" {
		_ = os.RemoveAll(s.tmpSpoolDir)
	}
	if httpErr != nil {
		return httpErr
	}
	return queueErr
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// uploadErr maps an oversize-upload error to its 413 response;
// (0, "") means the error was something else.
func uploadErr(err error) (int, string) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge,
			fmt.Sprintf("dataset exceeds the %d-byte upload limit", tooBig.Limit)
	}
	return 0, ""
}

// badPort describes an upload's first port value outside 0–65535.
// Synthesis rejects such a trace, and a release must fail before its
// charge, not after, so uploads refuse it. (Streaming registrations
// get the same check from ScanCSV.) Spools are not re-checked at
// restore: a dataset registered before the check keeps its ledger.
func badPort(t *netdpsyn.Table) (string, bool) {
	r, c, bad := t.BadPort()
	if !bad {
		return "", false
	}
	return fmt.Sprintf("row %d: %s %d outside 0–65535", r+1, t.Schema().Fields[c].Name, t.Value(r, c)), true
}

// schemaFor resolves the schema a registration names by its
// kind/label pair, normalizing the label (a packet dataset has none).
// A flow label names one more field, so it may not repeat a flow
// field's name (no schema could hold both) nor tsdiff, the field
// preprocessing adds (every release would fail).
func schemaFor(kind, label string) (*netdpsyn.Schema, string, error) {
	switch kind {
	case "flow":
		if label == "" {
			label = trace.FieldLabel
		}
		if label == trace.FieldTSDiff {
			return nil, "", fmt.Errorf("flow label %q collides with the %q field synthesis adds", label, trace.FieldTSDiff)
		}
	case "packet":
		label = ""
	}
	schema, err := journaledSchema(kind, label)
	if err != nil {
		return nil, "", err
	}
	return schema, label, nil
}

// journaledSchema builds the schema of a dataset's kind and
// normalized label. It refuses a flow label that repeats a flow
// field's name (no schema has two fields of one name), but not tsdiff:
// a dataset registered under that label before schemaFor refused it
// must still restore, so that its spend replays.
func journaledSchema(kind, label string) (*netdpsyn.Schema, error) {
	switch kind {
	case "flow":
		if label != trace.FieldLabel && netdpsyn.FlowSchema(trace.FieldLabel).Has(label) {
			return nil, fmt.Errorf("flow label %q collides with the flow field %q", label, label)
		}
		return netdpsyn.FlowSchema(label), nil
	case "packet":
		return netdpsyn.PacketSchema(), nil
	default:
		return nil, fmt.Errorf("unknown schema %q (want flow or packet)", kind)
	}
}

// handleRegister ingests the CSV request body against the named
// schema and registers it with a budget ceiling. The body is consumed
// in one pass, streamed straight into the parser — and, when a spool
// exists, simultaneously onto disk via a tee — so registration memory
// is bounded by the decoded table (in-memory datasets) or by one
// decode batch (streaming datasets), never by the upload size;
// chunked transfer encoding works as-is. Query parameters:
//
//	schema       flow | packet (default flow)
//	label        flow label field name (default "label")
//	name         human-readable dataset name
//	stream       1/true: register as a streaming dataset — the trace
//	             is spooled to disk only (time-ordered input required)
//	             and synthesized window-by-window in bounded memory
//	feed         1/true: register a live window feed — no body; whole
//	             windows of `span` timestamp units arrive later via
//	             PUT /datasets/{id}/windows/{bucket} and follow jobs
//	             synthesize them as they land
//	span         the feed's fixed time-bucket span (required with feed)
//	bucket_lo    declared bucket range for the feed: arrivals outside
//	bucket_hi    [bucket_lo, bucket_hi] are rejected at PUT, and follow
//	             jobs report declared-but-empty buckets explicitly
//	budget_eps   cumulative ε ceiling (with budget_delta → ρ ceiling)
//	budget_delta δ for the ceiling and for reported ε (default 1e-5)
//	budget_rho   ρ ceiling directly (overrides budget_eps)
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	kind := q.Get("schema")
	if kind == "" {
		kind = "flow"
	}
	schema, label, err := schemaFor(kind, q.Get("label"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	streaming := false
	switch v := q.Get("stream"); v {
	case "", "0", "false":
	case "1", "true":
		streaming = true
	default:
		writeErr(w, http.StatusBadRequest, "bad stream %q (want 1 or 0)", v)
		return
	}
	feed := false
	switch v := q.Get("feed"); v {
	case "", "0", "false":
	case "1", "true":
		feed = true
	default:
		writeErr(w, http.StatusBadRequest, "bad feed %q (want 1 or 0)", v)
		return
	}
	if feed {
		s.registerFeed(w, r, kind, label, schema)
		return
	}
	if q.Get("span") != "" || q.Get("bucket_lo") != "" || q.Get("bucket_hi") != "" {
		writeErr(w, http.StatusBadRequest, "span and bucket_lo/bucket_hi apply to feed registrations (feed=1)")
		return
	}

	budget, ok := s.parseBudget(w, q)
	if !ok {
		return
	}

	// Where the upload spools: the state dir's spool (durable), a
	// process-lifetime temp dir (volatile streaming), or nowhere
	// (volatile in-memory — a copy would be pure RSS for nothing).
	body := io.Reader(http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes))
	var spoolTmp *os.File
	switch {
	case s.store != nil:
		var err error
		if spoolTmp, err = s.store.CreateSpoolTemp(); err != nil {
			writeErr(w, http.StatusServiceUnavailable, "%v: %v", ErrPersist, err)
			return
		}
	case streaming:
		if !s.opts.AllowVolatileStream {
			writeErr(w, http.StatusBadRequest, "streaming registration needs -state-dir (or -stream to accept a volatile temp spool)")
			return
		}
		dir, err := s.volatileSpoolDir()
		if err != nil {
			writeErr(w, http.StatusServiceUnavailable, "temp spool: %v", err)
			return
		}
		if spoolTmp, err = os.CreateTemp(dir, "ds-*.csv"); err != nil {
			writeErr(w, http.StatusServiceUnavailable, "temp spool: %v", err)
			return
		}
	}
	var (
		spoolPath  string
		spoolBuf   *bufio.Writer
		registered bool
	)
	if spoolTmp != nil {
		spoolPath = spoolTmp.Name()
		spoolBuf = bufio.NewWriterSize(spoolTmp, 256<<10)
		body = io.TeeReader(body, spoolBuf)
		defer func() {
			// The fd outlives the store's rename, so closing here is
			// safe on every path; the remove only fires when the
			// registration did not take the file over (after a rename
			// it misses the old name, harmlessly).
			spoolTmp.Close()
			if !registered {
				os.Remove(spoolPath)
			}
		}()
	}

	// One pass over the body: in-memory datasets decode into a table,
	// streaming datasets are validated and counted without ever
	// building one.
	var (
		table *netdpsyn.Table
		rows  int
	)
	if streaming {
		var err error
		rows, err = netdpsyn.ScanCSV(body, schema)
		if err != nil {
			if code, msg := uploadErr(err); code != 0 {
				writeErr(w, code, "%s", msg)
				return
			}
			writeErr(w, http.StatusBadRequest, "scan CSV: %v", err)
			return
		}
	} else {
		var err error
		table, err = netdpsyn.LoadCSV(body, schema)
		if err != nil {
			if code, msg := uploadErr(err); code != 0 {
				writeErr(w, code, "%s", msg)
				return
			}
			writeErr(w, http.StatusBadRequest, "load CSV: %v", err)
			return
		}
		if msg, bad := badPort(table); bad {
			writeErr(w, http.StatusBadRequest, "%s", msg)
			return
		}
		rows = table.NumRows()
	}
	if rows == 0 {
		writeErr(w, http.StatusBadRequest, "dataset has no rows")
		return
	}

	req := RegisterRequest{
		Name:      q.Get("name"),
		Kind:      kind,
		Label:     label,
		Schema:    schema,
		Table:     table,
		Budget:    budget,
		Streaming: streaming,
		Rows:      rows,
	}
	if spoolTmp != nil {
		// Make the spool durable before the registry journals a record
		// pointing at it.
		if err := spoolBuf.Flush(); err != nil {
			writeErr(w, http.StatusServiceUnavailable, "%v: flush spool: %v", ErrPersist, err)
			return
		}
		if err := spoolTmp.Sync(); err != nil {
			writeErr(w, http.StatusServiceUnavailable, "%v: sync spool: %v", ErrPersist, err)
			return
		}
		req.SpoolTmp = spoolPath
	}
	d, err := s.reg.Register(req)
	switch {
	case errors.Is(err, ErrPersist):
		// The registration did not happen; durable-state writes are
		// retryable.
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeErr(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	registered = true
	s.metrics.observeDataset(d)
	s.logger(r.Context()).LogAttrs(r.Context(), slog.LevelInfo, "dataset registered",
		slog.String("dataset", d.ID),
		slog.String("kind", kind),
		slog.Int("rows", rows),
		slog.Bool("streaming", streaming),
	)
	writeJSON(w, http.StatusCreated, d.Info())
}

// parseBudget strictly parses the privacy-ceiling query parameters
// (budget_rho / budget_eps / budget_delta): a typo in the
// security-critical numbers must 400, never be half-parsed. On
// failure the response has been written and ok is false.
func (s *Server) parseBudget(w http.ResponseWriter, q url.Values) (*Budget, bool) {
	budgetDelta := 1e-5
	if v := q.Get("budget_delta"); v != "" {
		var err error
		if budgetDelta, err = strconv.ParseFloat(v, 64); err != nil {
			writeErr(w, http.StatusBadRequest, "bad budget_delta %q", v)
			return nil, false
		}
	}
	var ceilingRho float64
	switch {
	case q.Get("budget_rho") != "":
		var err error
		if ceilingRho, err = strconv.ParseFloat(q.Get("budget_rho"), 64); err != nil {
			writeErr(w, http.StatusBadRequest, "bad budget_rho %q", q.Get("budget_rho"))
			return nil, false
		}
	default:
		eps := s.opts.DefaultBudgetEps
		if v := q.Get("budget_eps"); v != "" {
			var err error
			if eps, err = strconv.ParseFloat(v, 64); err != nil {
				writeErr(w, http.StatusBadRequest, "bad budget_eps %q", v)
				return nil, false
			}
		}
		var err error
		ceilingRho, err = netdpsyn.RhoFromEpsDelta(eps, budgetDelta)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad budget ceiling: %v", err)
			return nil, false
		}
	}
	budget, err := NewBudget(ceilingRho, budgetDelta)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	return budget, true
}

// registerFeed installs a live window-feed dataset: no records yet —
// whole windows arrive later via PUT. Requires a state dir (window
// arrivals and per-key charges must be durable) unless the volatile
// opt-in is set.
func (s *Server) registerFeed(w http.ResponseWriter, r *http.Request, kind, label string, schema *netdpsyn.Schema) {
	q := r.URL.Query()
	if s.store == nil && !s.opts.AllowVolatileFeed {
		writeErr(w, http.StatusBadRequest, "feed registration needs -state-dir (or -follow to accept a volatile in-memory feed)")
		return
	}
	span, err := strconv.ParseInt(q.Get("span"), 10, 64)
	if err != nil || span <= 0 {
		writeErr(w, http.StatusBadRequest, "feed registration needs a positive span, got %q", q.Get("span"))
		return
	}
	parseBucket := func(name string) (*int64, bool) {
		v := q.Get(name)
		if v == "" {
			return nil, true
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad %s %q", name, v)
			return nil, false
		}
		return &n, true
	}
	bucketLo, ok := parseBucket("bucket_lo")
	if !ok {
		return
	}
	bucketHi, ok := parseBucket("bucket_hi")
	if !ok {
		return
	}
	if (bucketLo == nil) != (bucketHi == nil) {
		writeErr(w, http.StatusBadRequest, "declare both bucket_lo and bucket_hi, or neither")
		return
	}
	// A feed carries no registration body: windows arrive via PUT.
	if n, _ := io.CopyN(io.Discard, r.Body, 1); n > 0 {
		writeErr(w, http.StatusBadRequest, "feed registrations take no body; PUT windows to /datasets/{id}/windows/{bucket}")
		return
	}
	budget, ok := s.parseBudget(w, q)
	if !ok {
		return
	}
	d, err := s.reg.Register(RegisterRequest{
		Name:     q.Get("name"),
		Kind:     kind,
		Label:    label,
		Schema:   schema,
		Budget:   budget,
		Feed:     true,
		Span:     span,
		BucketLo: bucketLo,
		BucketHi: bucketHi,
	})
	switch {
	case errors.Is(err, ErrPersist):
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, ErrRegistryFull):
		writeErr(w, http.StatusTooManyRequests, "%v", err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.metrics.observeDataset(d)
	s.logger(r.Context()).LogAttrs(r.Context(), slog.LevelInfo, "feed registered",
		slog.String("dataset", d.ID),
		slog.String("kind", kind),
		slog.Int64("span", span),
	)
	writeJSON(w, http.StatusCreated, d.Info())
}

// WindowAck acknowledges a published live-feed window.
type WindowAck struct {
	DatasetID string `json:"dataset_id"`
	Bucket    int64  `json:"bucket"`
	Epoch     int    `json:"epoch"`
	Rows      int    `json:"rows"`
	// WindowsSealed counts the epoch's sealed windows so far.
	WindowsSealed int `json:"windows_sealed"`
}

// handleWindowPut ingests one whole window into a live feed: the CSV
// body must decode against the dataset's schema, every row must fall
// in the path's bucket (⌊ts/span⌋), and rows must be time-ordered.
// The bucket seals on PUT — a re-PUT in the same epoch is 409 — and
// the window is spooled + journaled durably before any follow job can
// see it. A PUT against a sealed feed opens the next epoch. Once
// Shutdown begins, new PUTs get 503 so the shutdown seal is final.
func (s *Server) handleWindowPut(w http.ResponseWriter, r *http.Request) {
	s.putMu.Lock()
	if s.draining {
		s.putMu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, "shutting down: feeds are sealed and no window can land")
		return
	}
	s.puts.Add(1)
	s.putMu.Unlock()
	defer s.puts.Done()
	d, ok := s.dataset(w, r)
	if !ok {
		return
	}
	if !d.Feed() {
		writeErr(w, http.StatusBadRequest, "dataset %s is not a live window feed (register with feed=1&span=S)", d.ID)
		return
	}
	bucket, err := strconv.ParseInt(r.PathValue("bucket"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad bucket %q: want the absolute time bucket ⌊ts/span⌋ as an integer", r.PathValue("bucket"))
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes)
	table, err := netdpsyn.LoadCSV(body, d.Schema())
	if err != nil {
		if code, msg := uploadErr(err); code != 0 {
			writeErr(w, code, "%s", msg)
			return
		}
		writeErr(w, http.StatusBadRequest, "load window CSV: %v", err)
		return
	}
	if msg, bad := badPort(table); bad {
		writeErr(w, http.StatusBadRequest, "%s", msg)
		return
	}
	if table.NumRows() == 0 {
		writeErr(w, http.StatusBadRequest, "window has no rows (empty buckets are never PUT — they are what the declared range reports)")
		return
	}
	if max := s.queue.maxWindowRows; table.NumRows() > max {
		writeErr(w, http.StatusRequestEntityTooLarge, "window holds %d rows, more than the %d-row cap — choose a smaller span", table.NumRows(), max)
		return
	}
	epoch, err := d.PublishWindow(bucket, table, s.store)
	switch {
	case errors.Is(err, ErrBucketSealed):
		writeErr(w, http.StatusConflict, "%v — sealed windows are immutable within an epoch; seal the feed and re-PUT to open a new epoch (the re-release charges that bucket's ledger key again)", err)
		return
	case errors.Is(err, ErrBucketRange):
		writeErr(w, http.StatusUnprocessableEntity, "%v", err)
		return
	case errors.Is(err, ErrFeedFull):
		writeErr(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, ErrPersist):
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.metrics.recordPut(d.ID, bucket)
	s.logger(r.Context()).LogAttrs(r.Context(), slog.LevelInfo, "window published",
		slog.String("dataset", d.ID),
		slog.Int64("bucket", bucket),
		slog.Int("epoch", epoch),
		slog.Int("rows", table.NumRows()),
	)
	info := d.Info()
	writeJSON(w, http.StatusCreated, WindowAck{
		DatasetID:     d.ID,
		Bucket:        bucket,
		Epoch:         epoch,
		Rows:          table.NumRows(),
		WindowsSealed: info.WindowsSealed,
	})
}

// handleSeal closes a live feed's current epoch: follow jobs drain
// and finish, and the next PUT reopens the feed under a new epoch.
func (s *Server) handleSeal(w http.ResponseWriter, r *http.Request) {
	d, ok := s.dataset(w, r)
	if !ok {
		return
	}
	epoch, err := d.SealFeed(s.store)
	switch {
	case errors.Is(err, ErrNotFeed):
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	case errors.Is(err, ErrPersist):
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"dataset_id": d.ID, "epoch": epoch, "sealed": true})
}

// handleListJobs enumerates jobs in admission order, for operators of
// long-lived follow deployments. Filters: ?dataset={id},
// ?status={queued|running|done|failed}, and
// ?kind={synthesize|follow|evaluate}.
func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	state := JobState(q.Get("status"))
	switch state {
	case "", JobQueued, JobRunning, JobDone, JobFailed:
	default:
		writeErr(w, http.StatusBadRequest, "bad status %q (want queued, running, done, or failed)", state)
		return
	}
	kind := q.Get("kind")
	switch kind {
	case "", KindSynthesize, KindFollow, KindEvaluate:
	default:
		writeErr(w, http.StatusBadRequest, "bad kind %q (want %s, %s, or %s)", kind, KindSynthesize, KindFollow, KindEvaluate)
		return
	}
	if ds := q.Get("dataset"); ds != "" {
		if _, ok := s.reg.Get(ds); !ok {
			writeErr(w, http.StatusNotFound, "no dataset %q", ds)
			return
		}
	}
	writeJSON(w, http.StatusOK, s.queue.List(q.Get("dataset"), state, kind))
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	ds := s.reg.List()
	out := make([]Info, len(ds))
	for i, d := range ds {
		out[i] = d.Info()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) dataset(w http.ResponseWriter, r *http.Request) (*Dataset, bool) {
	id := r.PathValue("id")
	d, ok := s.reg.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no dataset %q", id)
		return nil, false
	}
	return d, true
}

func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	if d, ok := s.dataset(w, r); ok {
		writeJSON(w, http.StatusOK, d.Info())
	}
}

func (s *Server) handleBudget(w http.ResponseWriter, r *http.Request) {
	if d, ok := s.dataset(w, r); ok {
		writeJSON(w, http.StatusOK, d.Budget().Snapshot())
	}
}

// SynthesisRequest is the JSON body of POST /datasets/{id}/synthesize.
// Zero fields take the pipeline defaults; Workers is not a request
// knob — the queue assigns it from the global budget, which cannot
// change the output (the engine's determinism contract).
type SynthesisRequest struct {
	Epsilon    float64 `json:"epsilon"`
	Delta      float64 `json:"delta"`
	Iterations int     `json:"iterations"`
	Records    int     `json:"records"`
	Seed       uint64  `json:"seed"`
	Tau        float64 `json:"tau"`
	KeyAttr    string  `json:"key_attr"`
	UseGUM     bool    `json:"use_gum"`
	// WindowSpan requests windowed synthesis: fixed time buckets of
	// that many timestamp units, each synthesized under the full
	// (ε, δ) and streamed into result.csv as it completes. Membership
	// is data-independent, so each window's release charges ONE
	// window's ρ to its own (span, bucket) ledger key, and distinct
	// keys compose in parallel (the ledger position is their max).
	// Streaming datasets require it. See Queue.Submit for the full
	// argument.
	WindowSpan int64 `json:"window_span"`
	// Follow requests a live-feed follow job (feed datasets only):
	// synthesize each window of the current epoch as it lands, finish
	// when the feed is sealed. Windowing comes from the feed's span.
	Follow bool `json:"follow"`
	// BucketLo/Hi declare a span job's expected bucket range: the
	// finished job reports declared-but-empty buckets explicitly and
	// a window outside the range fails the job. Follow jobs inherit
	// the range declared at feed registration instead.
	BucketLo *int64 `json:"bucket_lo,omitempty"`
	BucketHi *int64 `json:"bucket_hi,omitempty"`
}

// SynthesisResponse acknowledges an admitted (or cache-hit) job.
type SynthesisResponse struct {
	JobID string `json:"job_id"`
	// Cached reports that an identical (Config, Seed) release was
	// already admitted; the budget was not charged again.
	Cached bool `json:"cached"`
	// Rho is the job's per-release price — for span/follow jobs, the
	// per-window ρ each released bucket's ledger key is charged.
	Rho        float64  `json:"rho"`
	State      JobState `json:"state"`
	WindowSpan int64    `json:"window_span,omitempty"`
	Follow     bool     `json:"follow,omitempty"`
	Epoch      int      `json:"epoch,omitempty"`
}

func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	d, ok := s.dataset(w, r)
	if !ok {
		return
	}
	var req SynthesisRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	cfg := netdpsyn.Config{
		Epsilon:          req.Epsilon,
		Delta:            req.Delta,
		UpdateIterations: req.Iterations,
		SynthRecords:     req.Records,
		Seed:             req.Seed,
		Tau:              req.Tau,
		KeyAttr:          req.KeyAttr,
		UseGUM:           req.UseGUM,
	}
	job, cached, err := s.queue.Submit(d, cfg, SubmitRequest{
		Span:     req.WindowSpan,
		Follow:   req.Follow,
		BucketLo: req.BucketLo,
		BucketHi: req.BucketHi,
	})
	switch {
	case errors.Is(err, ErrBudgetExceeded):
		writeErr(w, http.StatusForbidden, "%v", err)
		return
	case errors.Is(err, ErrQueueClosed), errors.Is(err, ErrQueueFull), errors.Is(err, ErrPersist):
		// ErrPersist: the journal could not make the charge durable, so
		// no ρ was charged and the job was not admitted — retryable.
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.logger(r.Context()).LogAttrs(r.Context(), slog.LevelInfo, "synthesis submitted",
		slog.String("job", job.ID),
		slog.String("dataset", d.ID),
		slog.Bool("cached", cached),
		slog.Float64("rho", job.Rho),
	)
	info := job.Snapshot()
	writeJSON(w, http.StatusAccepted, SynthesisResponse{
		JobID:      job.ID,
		Cached:     cached,
		Rho:        job.Rho,
		State:      info.State,
		WindowSpan: job.Span,
		Follow:     job.Follow,
		Epoch:      job.Epoch,
	})
}

// EvaluationResponse acknowledges an admitted evaluation job.
type EvaluationResponse struct {
	JobID     string `json:"job_id"`
	TargetJob string `json:"target_job"`
	// Rho is the scalar ledger charge of this evaluation: 0 for a
	// release-only run, RhoFromEpsDelta(ε, δ) when any raw-touching
	// metric (tvd/ml/mia) was selected.
	Rho     float64  `json:"rho"`
	Metrics []string `json:"metrics,omitempty"`
	State   JobState `json:"state"`
}

// handleEvaluate admits an evaluation job: POST /datasets/{id}/evaluate
// with an EvaluationRequest body scores the named finished synthesis
// job's release. Release-only runs (empty metrics) are free; any
// raw-touching metric charges ρ through the same ledger gate as a
// synthesis admission (403 past the ceiling, 503 when the charge
// cannot be journaled).
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	d, ok := s.dataset(w, r)
	if !ok {
		return
	}
	var req EvaluationRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.JobID == "" {
		writeErr(w, http.StatusBadRequest, "job_id is required: the finished synthesis job to score")
		return
	}
	target, ok := s.queue.Get(req.JobID)
	if !ok {
		writeErr(w, http.StatusNotFound, "no job %q", req.JobID)
		return
	}
	job, err := s.queue.SubmitEvaluation(d, target, req)
	switch {
	case errors.Is(err, ErrEvalTargetNotDone):
		writeErr(w, http.StatusConflict, "%v", err)
		return
	case errors.Is(err, ErrBudgetExceeded):
		writeErr(w, http.StatusForbidden, "%v", err)
		return
	case errors.Is(err, ErrQueueClosed), errors.Is(err, ErrQueueFull), errors.Is(err, ErrPersist):
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.logger(r.Context()).LogAttrs(r.Context(), slog.LevelInfo, "evaluation submitted",
		slog.String("job", job.ID),
		slog.String("dataset", d.ID),
		slog.String("target", target.ID),
		slog.Float64("rho", job.Rho),
	)
	writeJSON(w, http.StatusAccepted, EvaluationResponse{
		JobID:     job.ID,
		TargetJob: target.ID,
		Rho:       job.Rho,
		Metrics:   job.evalReq.Metrics,
		State:     job.Snapshot().State,
	})
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.queue.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no job %q", id)
		return nil, false
	}
	return j, true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Snapshot())
	}
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if j.Evaluate {
		writeErr(w, http.StatusBadRequest, "job %s is an evaluation; its scores are the evaluation block of GET /jobs/%s", j.ID, j.ID)
		return
	}
	info := j.Snapshot()
	rs := j.Spool()
	switch info.State {
	case JobFailed:
		writeErr(w, http.StatusInternalServerError, "job failed: %s", info.Error)
		return
	case JobDone:
		// A sealed spool is the exact CSV bytes the job produced —
		// including a result recovered from a previous daemon
		// generation — so the whole response is delegated to
		// http.ServeContent: Content-Length, range requests, and, for
		// a results/ file, the body copy handed to sendfile instead of
		// re-streaming through Go buffers.
		if rs != nil {
			if c, modTime, ok := rs.Content(); ok {
				defer c.Close()
				s.resultHeaders(w, j)
				http.ServeContent(w, r, j.ID+".csv", modTime, c)
				return
			}
		}
		// Aged out of the retention window (or its file lost).
		// Resubmitting the identical synthesis request regenerates it
		// at zero budget cost (same deterministic computation, no new
		// release).
		writeErr(w, http.StatusGone, "job %s's result was evicted from the retention window; resubmit the identical request to regenerate it (no new budget spend)", j.ID)
		return
	default:
		if j.windowed() && rs != nil {
			// A windowed job streams finished windows while it runs:
			// the response follows the spool and completes when the
			// last window lands.
			s.streamSpool(w, j, rs)
			return
		}
		writeErr(w, http.StatusConflict, "job is %s; poll GET /jobs/%s until done", info.State, j.ID)
		return
	}
}

func (s *Server) resultHeaders(w http.ResponseWriter, j *Job) {
	w.Header().Set("Content-Type", "text/csv")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s-%s.csv", j.DatasetID, j.ID))
}

// streamSpool copies a job's result spool to the client, flushing
// after every chunk so a windowed job's finished windows arrive as
// they complete. The tail blocks until the job finishes; the drain on
// shutdown finishes every admitted job, so followers always unblock.
// A job that fails mid-stream aborts the connection (the client sees
// a transport error) instead of terminating what would look like a
// complete CSV.
func (s *Server) streamSpool(w http.ResponseWriter, j *Job, rs *resultSpool) {
	rd, err := rs.NewReader()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "open result: %v", err)
		return
	}
	defer rd.Close()
	s.resultHeaders(w, j)
	rc := http.NewResponseController(w)
	buf := make([]byte, 64<<10)
	for {
		n, rerr := rd.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return // client went away
			}
			_ = rc.Flush()
		}
		switch {
		case rerr == io.EOF:
			return
		case rerr != nil:
			panic(http.ErrAbortHandler)
		}
	}
}

// WaitJob blocks until the job finishes or the timeout expires, for
// callers (and tests) that want synchronous semantics on top of the
// async API.
func (s *Server) WaitJob(id string, timeout time.Duration) (*Job, error) {
	j, ok := s.queue.Get(id)
	if !ok {
		return nil, fmt.Errorf("serve: no job %q", id)
	}
	select {
	case <-j.Done():
		return j, nil
	case <-time.After(timeout):
		return nil, fmt.Errorf("serve: job %s still %s after %v", id, j.Snapshot().State, timeout)
	}
}
