package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDaemon compiles cmd/netdpsynd from the repository at root into
// dir and returns the binary's path.
func buildDaemon(root, dir string) (string, error) {
	bin := filepath.Join(dir, "netdpsynd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/netdpsynd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build netdpsynd in %s: %w", root, err)
	}
	return bin, nil
}

// daemon is one netdpsynd subprocess, run as the service is deployed:
// a durable state dir, one job at a time, one engine worker (see the
// README for why -workers 1).
type daemon struct {
	cmd    *exec.Cmd
	c      *client
	logs   *tailBuffer
	exited chan struct{}
}

// startDaemon launches netdpsynd on a free loopback port and returns
// once /readyz answers 200.
func startDaemon(ctx context.Context, bin, stateDir string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freePort()
		if err != nil {
			return nil, err
		}
		d := &daemon{logs: &tailBuffer{max: 64 << 10}, exited: make(chan struct{})}
		d.cmd = exec.Command(bin, "-addr", addr, "-state-dir", stateDir, "-workers", "1", "-jobs", "1")
		d.cmd.Stdout, d.cmd.Stderr = d.logs, d.logs
		// The daemon must not outlive the benchmark, even when the
		// benchmark is killed.
		d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := d.cmd.Start(); err != nil {
			return nil, fmt.Errorf("start netdpsynd: %w", err)
		}
		go func() {
			_ = d.cmd.Wait()
			close(d.exited)
		}()
		d.c = newClient("http://" + addr)
		if lastErr = d.waitReady(ctx); lastErr == nil {
			return d, nil
		}
		d.stop()
		if !strings.Contains(d.logs.String(), "address already in use") {
			break
		}
	}
	return nil, lastErr
}

// freePort reserves an ephemeral loopback port and releases it for the
// daemon to bind.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("reserve a port: %w", err)
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// waitReady polls /readyz every 2 ms until it answers 200, the daemon
// exits, or 60 s pass.
func (d *daemon) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		if code, err := d.c.status(ctx, "/readyz"); err == nil && code == http.StatusOK {
			return nil
		}
		select {
		case <-d.exited:
			return fmt.Errorf("netdpsynd exited during start-up:\n%s", d.logs.String())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("netdpsynd not ready after 60s:\n%s", d.logs.String())
		}
	}
}

// stop sends SIGTERM (the daemon seals feeds, drains jobs and compacts
// its journal), kills it if it has not exited within a minute, and
// waits for the process to end.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(time.Minute):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.c.hc.CloseIdleConnections()
}

// peakRSSMB reads the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read daemon peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// tailBuffer keeps the last max bytes of the daemon's log for error
// reports. exec's copier goroutine writes it while the benchmark may
// read it.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (b *tailBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	if over := len(b.buf) - b.max; over > 0 {
		b.buf = append(b.buf[:0], b.buf[over:]...)
	}
	return len(p), nil
}

func (b *tailBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return string(b.buf)
}

// client issues the benchmark's HTTP calls. Its transport holds at most
// two connections per daemon: the load never needs more than one
// request in flight plus the follow stream.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}}
}

// httpError is a request that failed at the HTTP level: a transport
// error or an unexpected status. Such operations count as failed, not
// as wrong output.
type httpError struct {
	method, path string
	code         int
	msg          string
}

func (e *httpError) Error() string {
	if e.code == 0 {
		return fmt.Sprintf("%s %s: %s", e.method, e.path, e.msg)
	}
	return fmt.Sprintf("%s %s: status %d: %s", e.method, e.path, e.code, e.msg)
}

func isHTTPFailure(err error) bool {
	var he *httpError
	return errors.As(err, &he)
}

// open sends a request tagged with reqID (the daemon logs it as the
// request id, joining its log lines to the benchmark's span) and
// returns the response when its status is want.
func (c *client) open(ctx context.Context, method, path, reqID string, body []byte, want int) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, &httpError{method: method, path: path, msg: err.Error()}
	}
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, &httpError{method: method, path: path, code: resp.StatusCode, msg: strings.TrimSpace(string(msg))}
	}
	return resp, nil
}

// call sends a request and decodes a JSON response into out (nil
// discards the body).
func (c *client) call(ctx context.Context, method, path, reqID string, body []byte, want int, out any) error {
	resp, err := c.open(ctx, method, path, reqID, body, want)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out != nil {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	if err == nil {
		// Read to EOF so the connection is reused: at one poll a
		// millisecond, a fresh connection per request would exhaust
		// ephemeral ports.
		_, err = io.Copy(io.Discard, resp.Body)
	}
	if err != nil {
		return &httpError{method: method, path: path, code: want, msg: "read body: " + err.Error()}
	}
	return nil
}

// fetch reads a whole response body into buf (reset first).
func (c *client) fetch(ctx context.Context, path, reqID string, buf *bytes.Buffer) error {
	resp, err := c.open(ctx, http.MethodGet, path, reqID, nil, http.StatusOK)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return &httpError{method: http.MethodGet, path: path, code: http.StatusOK, msg: "read body: " + err.Error()}
	}
	return nil
}

// status returns the status code of a GET, discarding the body.
func (c *client) status(ctx context.Context, path string) (int, error) {
	resp, err := c.open(ctx, http.MethodGet, path, "", nil, http.StatusOK)
	if err != nil {
		var he *httpError
		if errors.As(err, &he) && he.code != 0 {
			return he.code, nil
		}
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// metrics scrapes and parses GET /metrics.
func (c *client) metrics(ctx context.Context) (scrape, error) {
	var buf bytes.Buffer
	if err := c.fetch(ctx, "/metrics", "", &buf); err != nil {
		return nil, err
	}
	return parseScrape(buf.String())
}
