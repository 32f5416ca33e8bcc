package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// windowCounter turns a follow job's result.csv byte stream into
// window arrival times. The stream is a header line followed by each
// window's rows in release order, every window exactly rowsPerWindow
// rows; a row has arrived once its newline has, whatever read chunk
// carried it.
type windowCounter struct {
	rowsPerWindow int
	lines         int         // complete lines so far, header included
	done          []time.Time // arrival of each complete window's last row
}

// feed accounts one read chunk that arrived at now.
func (c *windowCounter) feed(p []byte, now time.Time) {
	c.lines += bytes.Count(p, []byte{'\n'})
	for c.lines-1 >= (len(c.done)+1)*c.rowsPerWindow {
		c.done = append(c.done, now)
	}
}

// followStream reads a follow job's result.csv from one goroutine for
// the job's whole life, keeping the bytes for verification and timing
// each window's arrival.
type followStream struct {
	mu     sync.Mutex
	wc     windowCounter
	body   bytes.Buffer
	err    error
	notify chan struct{} // a chunk arrived (capacity 1: one waiter)
	done   chan struct{} // the reader has returned
}

// openFollowStream starts the reader. The daemon sends the response
// headers with the first window's rows, so the request itself is made
// on the reader goroutine.
func openFollowStream(ctx context.Context, c *client, path, id string) *followStream {
	fs := &followStream{
		wc:     windowCounter{rowsPerWindow: followRows},
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	go func() {
		defer close(fs.done)
		resp, err := c.open(ctx, http.MethodGet, path, id, nil, http.StatusOK)
		if err != nil {
			fs.finish(err)
			return
		}
		defer resp.Body.Close()
		buf := make([]byte, 64<<10)
		for {
			n, err := resp.Body.Read(buf)
			if n > 0 {
				now := time.Now()
				fs.mu.Lock()
				fs.body.Write(buf[:n])
				fs.wc.feed(buf[:n], now)
				fs.mu.Unlock()
				fs.signal()
			}
			if err == io.EOF {
				fs.finish(nil)
				return
			}
			if err != nil {
				fs.finish(&httpError{method: http.MethodGet, path: path, code: http.StatusOK, msg: "result stream: " + err.Error()})
				return
			}
		}
	}()
	return fs
}

func (fs *followStream) signal() {
	select {
	case fs.notify <- struct{}{}:
	default:
	}
}

func (fs *followStream) finish(err error) {
	fs.mu.Lock()
	fs.err = err
	fs.mu.Unlock()
	fs.signal()
}

// windows reports how many windows have fully arrived.
func (fs *followStream) windows() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.wc.done)
}

// arrival returns when window k's last row arrived.
func (fs *followStream) arrival(k int) time.Time {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.wc.done[k]
}

// wait blocks until n windows have arrived.
func (fs *followStream) wait(ctx context.Context, n int, timeout time.Duration) error {
	deadline := time.After(timeout)
	for {
		fs.mu.Lock()
		got, err := len(fs.wc.done), fs.err
		fs.mu.Unlock()
		if got >= n {
			return nil
		}
		select {
		case <-fs.done:
			if err == nil {
				err = fmt.Errorf("result stream ended after %d of %d windows", got, n)
			}
			return err
		case <-fs.notify:
		case <-deadline:
			return fmt.Errorf("only %d of %d windows arrived within %v", got, n, timeout)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// followSetup admits the follow job, opens its result stream, and
// warms up with windows from seeds outside the measured set.
func (s *trial) followSetup(ctx context.Context) error {
	req, err := json.Marshal(synthRequest{
		Epsilon: epsilon, Delta: delta, Iterations: followIterations, Records: followRows,
		Seed: mix(s.o.seed, streamWarm, 0), Follow: true,
	})
	if err != nil {
		return err
	}
	var ack synthAck
	if err := s.d.c.call(ctx, http.MethodPost, "/datasets/"+s.ds+"/synthesize", s.reqID("follow"), req, http.StatusAccepted, &ack); err != nil {
		return fmt.Errorf("admit follow job: %w", err)
	}
	// Windows charge their own bucket keys; distinct buckets compose
	// as a max, so the whole feed costs one window's ρ.
	if err := s.admitted(ack, s.reqID("follow")); err != nil {
		return err
	}
	s.job = ack.JobID
	s.stream = openFollowStream(ctx, s.d.c, "/jobs/"+s.job+"/result.csv", s.reqID("stream"))
	for k := 0; k < warmups; k++ {
		body, err := s.warmPool.render(k, int64(k))
		if err != nil {
			return err
		}
		if err := s.put(ctx, int64(k), s.reqID(fmt.Sprintf("w%d", k)), body); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return s.stream.wait(ctx, warmups, time.Minute)
}

// put publishes one window.
func (s *trial) put(ctx context.Context, bucket int64, id string, body []byte) error {
	return s.d.c.call(ctx, http.MethodPut, "/datasets/"+s.ds+"/windows/"+strconv.FormatInt(bucket, 10), id, body, http.StatusCreated, nil)
}

// sentWindow is one acknowledged measured window.
type sentWindow struct {
	id             string
	bucket         int64
	k              int // its position in the result stream
	due, send, ack time.Time
}

// followLoop PUTs windows on a fixed schedule, followRate per second,
// whatever the daemon's progress: an open loop. A window's latency runs
// from when it was due, so a stall also delays the windows queued
// behind it.
func (s *trial) followLoop(ctx context.Context) (*measurement, error) {
	m := &measurement{}
	n := s.o.windows
	if n == 0 {
		n = int(s.o.seconds * followRate)
	}
	if need := minSamples(s.w.tail); n < need && s.o.windows == 0 {
		n = need
	}
	interval := time.Second / followRate
	var sent []sentWindow
	next, err := s.pool.render(0, warmups)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		bucket := int64(warmups + i)
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		w := sentWindow{id: s.reqID(strconv.Itoa(i)), bucket: bucket, due: due, send: time.Now()}
		m.attempted++
		err := s.put(ctx, bucket, w.id, next)
		w.ack = time.Now()
		m.lateMax = max(m.lateMax, float64(w.send.Sub(due))/1e6)
		switch {
		case isHTTPFailure(err):
			m.failed++
		case err != nil:
			return nil, err
		default:
			w.k = warmups + len(sent)
			sent = append(sent, w)
			m.backlogMax = max(m.backlogMax, w.k+1-s.stream.windows())
		}
		if i+1 < n {
			if next, err = s.pool.render(i+1, bucket+1); err != nil {
				return nil, err
			}
		}
	}
	if err := s.stream.wait(ctx, warmups+len(sent), time.Minute); err != nil {
		return nil, err
	}
	m.wall = time.Since(start)
	for _, w := range sent {
		m.ops = append(m.ops, sample{latency: float64(s.stream.arrival(w.k).Sub(w.due)) / 1e6, rows: followRows})
		m.rows += followRows
	}
	s.sent = sent
	return m, nil
}

// followFinish seals the feed, lets the follow job finish, and
// verifies the whole stream: it must load, hold 300 rows per window,
// and agree with the job's record count. Traced runs then read the
// job's per-window trace once and build each window's spans.
func (s *trial) followFinish(ctx context.Context, m *measurement) error {
	if err := s.d.c.call(ctx, http.MethodPost, "/datasets/"+s.ds+"/seal", s.reqID("seal"), nil, http.StatusOK, nil); err != nil {
		return fmt.Errorf("seal: %w", err)
	}
	select {
	case <-s.stream.done:
	case <-time.After(time.Minute):
		return fmt.Errorf("follow result stream still open a minute after the seal")
	case <-ctx.Done():
		return ctx.Err()
	}
	if s.stream.err != nil {
		return fmt.Errorf("follow result stream: %w", s.stream.err)
	}
	info, _, err := s.waitDone(ctx, s.job, s.reqID("job"))
	if err != nil {
		return err
	}
	if info.State != "done" {
		return fmt.Errorf("follow job %s: %s", info.State, info.Error)
	}
	windows := warmups + len(s.sent)
	if info.Records != windows*followRows {
		return fmt.Errorf("follow job reported %d records for %d windows of %d", info.Records, windows, followRows)
	}
	t, err := verifyResult(s.stream.body.Bytes(), s.in.schema, info.Records, s.in.labels)
	if err != nil {
		return fmt.Errorf("follow result: %w", err)
	}
	m.result = t.Head(followRows)
	if !s.o.trace {
		return nil
	}
	byBucket := map[int64]windowTrace{}
	for _, w := range info.Trace {
		if w.Bucket != nil {
			byBucket[*w.Bucket] = w
		}
	}
	for i, w := range s.sent {
		wt, ok := byBucket[w.bucket]
		if !ok || len(wt.Spans) == 0 {
			return fmt.Errorf("follow job trace has no spans for bucket %d", w.bucket)
		}
		seen := s.stream.arrival(w.k)
		tr := newOpTrace(w.id, "e2e.window", w.due)
		tr.add("gen.late", 0, w.due, w.send)
		tr.add("serve.submit", 0, w.send, w.ack)
		first := wt.Spans[0].Start
		tr.add("serve.queue_wait", 0, w.ack, first)
		// The daemon reports no per-window job interval, only its stage
		// spans, so the window's job span is derived from them: the
		// time between stages stays unaccounted.
		job := tr.add("serve.job", 0, first, first)
		last := addStages(tr, job, []windowTrace{wt})
		tr.spans[job].End, tr.spans[job].Derived = wall(last), true
		tr.add("serve.fetch", 0, last, seen)
		tr.finish(seen)
		m.ops[i].tr = tr
	}
	return nil
}
