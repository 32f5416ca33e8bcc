package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// Request tracing: every request gets an id, threaded through the
// context into every log line the request produces and echoed back in
// the X-Request-ID response header, so one grep over the daemon's
// structured logs reconstructs a request's full path (admission,
// charge, job transitions). A client-supplied X-Request-ID is honored
// when it is sane — ≤ 64 chars of [0-9A-Za-z._-] — so a proxy's trace
// id survives end to end; anything else is replaced, never echoed
// (header-injection hygiene).

// requestIDHeader carries the id in both directions.
const requestIDHeader = "X-Request-ID"

type requestIDKey struct{}

// RequestIDFrom returns the request id the observability middleware
// assigned to ctx ("" outside a request).
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// reqSeq disambiguates ids generated in the same process; the random
// prefix disambiguates across restarts.
var reqSeq atomic.Uint64

// newRequestID mints a process-unique request id: 6 random bytes plus
// a monotonic sequence number (collision-safe even if the entropy
// pool fails — the sequence alone is unique within the process).
func newRequestID() string {
	var b [6]byte
	seq := strconv.FormatUint(reqSeq.Add(1), 10)
	if _, err := rand.Read(b[:]); err != nil {
		return "req-" + seq
	}
	return hex.EncodeToString(b[:]) + "-" + seq
}

// sanitizeRequestID accepts a client-supplied id only if it is short
// and shell/log-safe.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c == '.', c == '_', c == '-':
		default:
			return ""
		}
	}
	return id
}

// statusRecorder captures the response status and size for the access
// log and the route metrics. It implements Unwrap so
// http.NewResponseController reaches the underlying writer's Flush —
// streamSpool's incremental result delivery depends on it — and
// io.ReaderFrom so a finished result file still reaches sendfile(2).
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(p)
	sr.bytes += int64(n)
	return n, err
}

// ReadFrom hands a body copy to the wrapped writer's own ReadFrom:
// http.ServeContent copies through io.CopyN, and net/http's response
// implements ReadFrom with sendfile(2) for an *os.File source. Without
// this method the copy falls back to a 32 KB buffered loop through
// Write.
func (sr *statusRecorder) ReadFrom(src io.Reader) (int64, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := io.Copy(sr.ResponseWriter, src)
	sr.bytes += n
	return n, err
}

func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// withObservability wraps the route table with request tracing,
// structured access logging, and per-route metrics. It deliberately
// does NOT recover panics: http.ErrAbortHandler is how streamSpool
// aborts a mid-stream failure, and net/http's own recovery must see
// it. The deferred log/metric still fires on that path (status as
// recorded before the abort).
func (s *Server) withObservability(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := sanitizeRequestID(r.Header.Get(requestIDHeader))
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set(requestIDHeader, id)
		ctx := context.WithValue(r.Context(), requestIDKey{}, id)
		r = r.WithContext(ctx)

		// The route label is the mux pattern ("GET /jobs/{id}"), not
		// the raw path — bounded cardinality no matter what ids fly by.
		_, route := s.mux.Handler(r)
		if route == "" {
			route = "unmatched"
		}
		sr := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		defer func() {
			dur := time.Since(start)
			s.metrics.httpDone(route, r.Method, sr.status, dur)
			s.log.LogAttrs(ctx, slog.LevelInfo, "http request",
				slog.String("request_id", id),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("route", route),
				slog.Int("status", statusOr200(sr.status)),
				slog.Int64("bytes", sr.bytes),
				slog.Duration("duration", dur),
				slog.String("remote", r.RemoteAddr),
			)
		}()
		next.ServeHTTP(sr, r)
	})
}

// statusOr200 folds the never-wrote case into net/http's implicit 200.
func statusOr200(status int) int {
	if status == 0 {
		return http.StatusOK
	}
	return status
}

// logger returns the server's logger bound to ctx's request id, so
// handler-level lines join the access log under one trace key.
func (s *Server) logger(ctx context.Context) *slog.Logger {
	if id := RequestIDFrom(ctx); id != "" {
		return s.log.With(slog.String("request_id", id))
	}
	return s.log
}
