// Command netdpsynd is the long-lived NetDPSyn synthesis service: it
// keeps registered trace datasets in memory, meters cumulative zCDP
// spend per dataset against a ceiling, and runs synthesis requests
// through an async job queue.
//
// Usage:
//
//	netdpsynd -addr :8090 -workers 4 -jobs 2 -budget-eps 8 -state-dir /var/lib/netdpsynd
//
// Walkthrough (see the README for the full curl session):
//
//	curl -X POST --data-binary @flows.csv 'localhost:8090/datasets?schema=flow&label=label'
//	curl -X POST -d '{"epsilon":1.0,"seed":1}' localhost:8090/datasets/ds-1/synthesize
//	curl localhost:8090/jobs/job-1
//	curl localhost:8090/jobs/job-1/result.csv
//	curl -X POST -d '{"job_id":"job-1","metrics":["tvd","ml","mia"]}' localhost:8090/datasets/ds-1/evaluate
//	curl localhost:8090/datasets/ds-1/budget
//
// The evaluate endpoint scores a finished release against its source:
// release-only statistics are free (DP post-processing), while any
// raw-touching metric (marginal TVD, downstream ML accuracy,
// membership-inference advantage) prices a fresh raw pass at
// ρ(ε, δ) through the same ledger gate as a synthesis — the scores
// land in the evaluation block of GET /jobs/{id}.
//
// Large traces stream: register with ?stream=1 (chunked upload is
// spooled straight to the state dir, never decoded whole), then
// synthesize with {"window_span": S} — the trace is cut into fixed
// time buckets of S timestamp units (membership is a function of each
// record alone, so each window charges one window's ρ to its own
// (span, bucket) ledger key and distinct keys compose in parallel —
// the ledger position is their max), the job reports per-window
// progress, and result.csv streams windows as they complete. The
// -window-span flag supplies a default span for such datasets;
// -max-window-rows bounds one window's records so a too-coarse span
// fails instead of swallowing RAM; -stream accepts streaming
// registrations without a -state-dir by spooling to a temp dir.
// In-memory datasets accept {"window_span": S} too; without it a
// request is one whole-trace release.
//
// Continuous ingest: register a live window feed with ?feed=1&span=S
// (no body), PUT whole windows to /datasets/{id}/windows/{bucket} as
// they are captured (seal-on-PUT; re-PUT of a sealed bucket is 409),
// and submit {"follow": true} — the job synthesizes each window as it
// lands and finishes when the feed is sealed (POST
// /datasets/{id}/seal, or automatically after -seal-after of
// inactivity). Re-releasing the same bucket in a later epoch charges
// that bucket's key again — sequential composition on the key, while
// distinct buckets still cost the max. -follow accepts feed
// registrations without a -state-dir (volatile).
//
// With -state-dir the daemon is restart-safe: the budget ledger
// (scalar and per-window-key), dataset registry, window arrivals, and
// job journal are persisted (every charge fsync'd before its job
// runs), so a crash never forgets cumulative zCDP spend — interrupted
// jobs replay as charged failures, while an interrupted follow job
// RESUMES at the next bucket with exact per-key ledger positions.
// Without it, all state is in-memory and dies with the process.
//
// Result retention: -max-results bounds how many finished results are
// kept (in memory and under results/), and -result-ttl ages them out;
// evicted results answer 410 Gone and an identical resubmit
// regenerates them at zero budget cost.
//
// The daemon drains admitted jobs on SIGINT/SIGTERM before exiting
// (sealing live feeds so follow jobs finish).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/netdpsyn/netdpsyn/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8090", "listen address")
		workers     = flag.Int("workers", 0, "global synthesis worker budget shared across jobs (0 = all cores)")
		jobs        = flag.Int("jobs", 2, "max concurrent synthesis jobs")
		budgetEps   = flag.Float64("budget-eps", 8.0, "default per-dataset cumulative ε ceiling")
		budgetDelta = flag.Float64("budget-delta", 1e-5, "δ for the default budget ceiling")
		drain       = flag.Duration("drain", 2*time.Minute, "max time to drain in-flight jobs on shutdown")
		stateDir    = flag.String("state-dir", "", "directory for durable service state (budget ledger, dataset registry, job journal, result spool); empty = in-memory only, spend is forgotten on restart")
		windowSpan  = flag.Int64("window-span", 0, "default time-window span (timestamp units) for synthesis against streaming datasets whose request omits window_span (0 = require an explicit value)")
		maxWinRows  = flag.Int("max-window-rows", 0, "max records one streaming time window (or one PUT window) may hold, and max records a synthesis request may ask for, before it is refused (0 = a ~1M-row default)")
		stream      = flag.Bool("stream", false, "accept streaming registrations (?stream=1) without -state-dir by spooling uploads to a temp dir (not restart-safe)")
		follow      = flag.Bool("follow", false, "accept live window-feed registrations (?feed=1) without -state-dir (in-memory feed, not restart-safe)")
		sealAfter   = flag.Duration("seal-after", 0, "auto-seal a live feed after this much inactivity so follow jobs finish (0 = only explicit POST /datasets/{id}/seal)")
		maxResults  = flag.Int("max-results", 0, "max finished results retained, in memory and under results/ (0 = 256); older results answer 410 Gone and regenerate on resubmit at zero budget cost")
		resultTTL   = flag.Duration("result-ttl", 0, "age out finished results older than this (0 = no age sweep)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof (plus a mirrored /metrics) on this separate address (e.g. localhost:6060); empty = disabled. The endpoints are unauthenticated — bind to loopback")
	)
	flag.Parse()
	opts, err := buildOptions(flagValues{
		addr: *addr, workers: *workers, jobs: *jobs,
		budgetEps: *budgetEps, budgetDelta: *budgetDelta,
		stateDir: *stateDir, windowSpan: *windowSpan, maxWinRows: *maxWinRows,
		stream: *stream, follow: *follow, sealAfter: *sealAfter,
		maxResults: *maxResults, resultTTL: *resultTTL,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "netdpsynd:", err)
		os.Exit(2)
	}
	if err := run(opts, *drain, *pprofAddr); err != nil {
		fmt.Fprintln(os.Stderr, "netdpsynd:", err)
		os.Exit(1)
	}
}

// flagValues carries the parsed flags into buildOptions.
type flagValues struct {
	addr                   string
	workers, jobs          int
	budgetEps, budgetDelta float64
	stateDir               string
	windowSpan             int64
	maxWinRows             int
	stream, follow         bool
	sealAfter              time.Duration
	maxResults             int
	resultTTL              time.Duration
}

// buildOptions validates the flag values into serve.Options.
func buildOptions(f flagValues) (serve.Options, error) {
	if f.windowSpan < 0 {
		return serve.Options{}, fmt.Errorf("-window-span must be non-negative, got %d", f.windowSpan)
	}
	if f.maxWinRows < 0 {
		return serve.Options{}, fmt.Errorf("-max-window-rows must be non-negative, got %d", f.maxWinRows)
	}
	if f.addr == "" {
		return serve.Options{}, fmt.Errorf("missing -addr")
	}
	if f.workers < 0 {
		return serve.Options{}, fmt.Errorf("-workers must be non-negative, got %d", f.workers)
	}
	if f.jobs <= 0 {
		return serve.Options{}, fmt.Errorf("-jobs must be positive, got %d", f.jobs)
	}
	if !(f.budgetEps > 0) || math.IsInf(f.budgetEps, 0) { // !(x > 0) also catches NaN
		return serve.Options{}, fmt.Errorf("-budget-eps must be positive and finite, got %v", f.budgetEps)
	}
	if !(f.budgetDelta > 0) || f.budgetDelta >= 1 {
		return serve.Options{}, fmt.Errorf("-budget-delta must be in (0,1), got %v", f.budgetDelta)
	}
	if f.sealAfter < 0 {
		return serve.Options{}, fmt.Errorf("-seal-after must be non-negative, got %v", f.sealAfter)
	}
	if f.maxResults < 0 {
		return serve.Options{}, fmt.Errorf("-max-results must be non-negative, got %d", f.maxResults)
	}
	if f.resultTTL < 0 {
		return serve.Options{}, fmt.Errorf("-result-ttl must be non-negative, got %v", f.resultTTL)
	}
	return serve.Options{
		Addr:                f.addr,
		Workers:             f.workers,
		MaxConcurrentJobs:   f.jobs,
		DefaultBudgetEps:    f.budgetEps,
		DefaultBudgetDelta:  f.budgetDelta,
		StateDir:            f.stateDir,
		DefaultWindowSpan:   f.windowSpan,
		MaxWindowRows:       f.maxWinRows,
		AllowVolatileStream: f.stream,
		AllowVolatileFeed:   f.follow,
		SealAfter:           f.sealAfter,
		MaxResults:          f.maxResults,
		ResultTTL:           f.resultTTL,
	}, nil
}

func run(opts serve.Options, drain time.Duration, pprofAddr string) error {
	// One structured logger for the whole daemon: key=value text on
	// stderr. The serve layer threads a request_id attribute through
	// every request-scoped line.
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	slog.SetDefault(logger)
	opts.Logger = logger

	s, err := serve.NewServer(opts)
	if err != nil {
		return err
	}
	if pprofAddr != "" {
		// The side listener mirrors /metrics next to the pprof
		// endpoints; both are unauthenticated, so keep this address on
		// loopback.
		prof, err := newProfServer(pprofAddr, s.MetricsHandler())
		if err != nil {
			return err
		}
		defer prof.close()
		go prof.serve()
		logger.Info("pprof sidecar listening",
			"pprof", "http://"+prof.addrString()+"/debug/pprof/",
			"metrics", "http://"+prof.addrString()+"/metrics")
	}
	if rec := s.Recovery(); rec != nil {
		logger.Info("state recovered", "state_dir", opts.StateDir, "recovery", rec.String())
		for _, warn := range rec.Warnings {
			logger.Warn("recovery warning", "warning", warn)
		}
	} else {
		logger.Warn("running without -state-dir: ledger, registry, and jobs are in-memory and cumulative spend is forgotten on restart")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- s.ListenAndServe() }()
	logger.Info("listening",
		"addr", opts.Addr,
		"jobs", opts.MaxConcurrentJobs,
		"budget_eps", opts.DefaultBudgetEps,
		"budget_delta", opts.DefaultBudgetDelta)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Restore default signal handling immediately: a second
	// SIGINT/SIGTERM during the drain kills the process instead of
	// being swallowed for the full -drain window.
	stop()
	logger.Info("shutting down: draining jobs; signal again to force quit", "drain", drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := s.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return <-errc
}
