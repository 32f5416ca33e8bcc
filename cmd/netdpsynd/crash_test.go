//go:build !windows

package main

// Crash/restart durability harness: builds the real netdpsynd binary,
// kills it with SIGKILL mid-job, restarts it with the same -state-dir,
// and asserts the acceptance contract over plain HTTP:
//
//  1. cumulative ρ after restart ≥ cumulative ρ before the crash
//  2. the interrupted job replays as a charged failure
//  3. a request that would cross the ceiling still gets 403
//  4. an identical resubmit of a completed job is served from cache
//     at zero new spend (and regenerates its evicted result)
//
// The in-process twin of this test lives in internal/serve
// (TestRestartRecovery); this one exists because only a subprocess
// can die the way production dies.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	netdpsyn "github.com/netdpsyn/netdpsyn"
	"github.com/netdpsyn/netdpsyn/internal/datagen"
	"github.com/netdpsyn/netdpsyn/internal/obs/obstest"
	"github.com/netdpsyn/netdpsyn/internal/serve"
)

// syncBuffer is a mutex-guarded log sink: the exec.Cmd pipe copier
// writes it from its own goroutine while the test reads String(), so
// a bare bytes.Buffer is a data race under -race.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// freePort reserves an ephemeral port and releases it for the daemon.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// startDaemon launches the built binary and waits for /healthz.
func startDaemon(t *testing.T, bin, addr, stateDir string, logs *syncBuffer) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, "-addr", addr, "-jobs", "1", "-workers", "1", "-state-dir", stateDir)
	cmd.Stdout = logs
	cmd.Stderr = logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd
			}
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatalf("daemon never became healthy on %s; logs:\n%s", addr, logs.String())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func getJSONInto(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// scrapeMetrics fetches /metrics and validates the exposition against
// the hand-rolled grammar checker before handing the body back.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obstest.ValidateExposition(bytes.NewReader(body)); err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	return string(body)
}

// metricValue extracts one sample's value from an exposition body by
// its exact rendered series name (name + label set).
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %q not in exposition:\n%s", series, body)
	return 0
}

func postSynth(t *testing.T, base, dsID string, req serve.SynthesisRequest) (serve.SynthesisResponse, int) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/datasets/"+dsID+"/synthesize", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack serve.SynthesisResponse
	_ = json.NewDecoder(resp.Body).Decode(&ack)
	return ack, resp.StatusCode
}

// waitJobState polls a job until pred holds or the deadline passes.
func waitJobState(t *testing.T, base, jobID string, timeout time.Duration, pred func(serve.JobInfo) bool) serve.JobInfo {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var info serve.JobInfo
		if code := getJSONInto(t, base+"/jobs/"+jobID, &info); code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d", jobID, code)
		}
		if pred(info) {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s after %v", jobID, info.State, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCrashRestartDurability(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and SIGKILLs a daemon subprocess; skipped in -short")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}

	tmp := t.TempDir()
	bin := filepath.Join(tmp, "netdpsynd")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build daemon: %v\n%s", err, out)
	}
	stateDir := filepath.Join(tmp, "state")

	jobRho, err := netdpsyn.RhoFromEpsDelta(1.0, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	ceiling := 2.5 * jobRho // two releases fit, a third does not

	addr := freePort(t)
	base := "http://" + addr
	var logs syncBuffer
	daemon := startDaemon(t, bin, addr, stateDir, &logs)
	defer func() { _ = daemon.Process.Kill() }()

	// Register an emulated TON flow trace with the 2.5-release ceiling.
	raw, err := datagen.Generate(datagen.TON, datagen.Config{Rows: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if err := raw.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	regURL := fmt.Sprintf("%s/datasets?label=%s&budget_rho=%g&budget_delta=1e-5",
		base, datagen.LabelField(datagen.TON), ceiling)
	resp, err := http.Post(regURL, "text/csv", &csvBuf)
	if err != nil {
		t.Fatal(err)
	}
	var dsInfo serve.Info
	if err := json.NewDecoder(resp.Body).Decode(&dsInfo); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register = %d", resp.StatusCode)
	}

	// Job A: quick, completes before the crash.
	reqA := serve.SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Seed: 11}
	ackA, code := postSynth(t, base, dsInfo.ID, reqA)
	if code != http.StatusAccepted {
		t.Fatalf("job A = %d", code)
	}
	infoA := waitJobState(t, base, ackA.JobID, 60*time.Second, func(i serve.JobInfo) bool {
		return i.State == serve.JobDone || i.State == serve.JobFailed
	})
	if infoA.State != serve.JobDone {
		t.Fatalf("job A = %s (%s)", infoA.State, infoA.Error)
	}

	// Job B: heavy enough (~1s of GUM rounds on one core) to still be
	// running when the SIGKILL lands, even after the JobRunning poll
	// and budget read below.
	reqB := serve.SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 120000, Seed: 12}
	ackB, code := postSynth(t, base, dsInfo.ID, reqB)
	if code != http.StatusAccepted {
		t.Fatalf("job B = %d", code)
	}
	waitJobState(t, base, ackB.JobID, 30*time.Second, func(i serve.JobInfo) bool {
		return i.State == serve.JobRunning
	})

	var budget serve.Status
	getJSONInto(t, base+"/datasets/"+dsInfo.ID+"/budget", &budget)
	preCrash := budget.SpentRho
	if preCrash < 2*jobRho-1e-12 {
		t.Fatalf("pre-crash spent ρ = %v, want ≥ %v", preCrash, 2*jobRho)
	}

	// Scrape /metrics pre-crash: the ledger gauges must agree with the
	// budget endpoint (both read the same ledger at scrape time).
	spentSeries := fmt.Sprintf(`netdpsynd_budget_spent_rho{dataset=%q}`, dsInfo.ID)
	ceilSeries := fmt.Sprintf(`netdpsynd_budget_ceiling_rho{dataset=%q}`, dsInfo.ID)
	preMetrics := scrapeMetrics(t, base)
	preSpentGauge := metricValue(t, preMetrics, spentSeries)
	if math.Abs(preSpentGauge-preCrash) > 1e-12 {
		t.Fatalf("pre-crash spend gauge = %v, budget endpoint = %v", preSpentGauge, preCrash)
	}
	preCeilGauge := metricValue(t, preMetrics, ceilSeries)

	// kill -9 mid-job: no drain, no goodbye.
	if err := daemon.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = daemon.Wait()

	// Restart with the same -state-dir.
	daemon2 := startDaemon(t, bin, addr, stateDir, &logs)
	defer func() { _ = daemon2.Process.Kill() }()

	// (1) Cumulative ρ is monotone across the restart.
	getJSONInto(t, base+"/datasets/"+dsInfo.ID+"/budget", &budget)
	if budget.SpentRho < preCrash-1e-12 {
		t.Fatalf("spend shrank across kill -9: %v < %v", budget.SpentRho, preCrash)
	}

	// The ledger gauges survive the SIGKILL exactly: the recovered
	// exposition renders the identical spend and ceiling (the gauges
	// read the replayed ledger at scrape time, so a spend that shrank
	// would be a journal-replay bug, not a metrics bug).
	postMetrics := scrapeMetrics(t, base)
	postSpentGauge := metricValue(t, postMetrics, spentSeries)
	if math.Abs(postSpentGauge-preSpentGauge) > 1e-12 {
		t.Fatalf("spend gauge changed across kill -9: %v → %v", preSpentGauge, postSpentGauge)
	}
	if ceil := metricValue(t, postMetrics, ceilSeries); math.Abs(ceil-preCeilGauge) > 1e-12 {
		t.Fatalf("ceiling gauge changed across kill -9: %v → %v", preCeilGauge, ceil)
	}

	// (2) The interrupted job replays as a charged failure.
	var infoB serve.JobInfo
	if code := getJSONInto(t, base+"/jobs/"+ackB.JobID, &infoB); code != http.StatusOK {
		t.Fatalf("GET interrupted job = %d", code)
	}
	if infoB.State != serve.JobFailed || !strings.Contains(infoB.Error, "restart") {
		t.Fatalf("interrupted job = %s (%q), want charged failure mentioning the restart", infoB.State, infoB.Error)
	}

	// (3) A third distinct release still crosses the ceiling: 403.
	if _, code := postSynth(t, base, dsInfo.ID, serve.SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Seed: 13}); code != http.StatusForbidden {
		t.Fatalf("over-ceiling after restart = %d, want 403", code)
	}

	// (4) Identical resubmit of the completed job: cache hit, zero new
	// spend, and the evicted result regenerates deterministically.
	ackA2, code := postSynth(t, base, dsInfo.ID, reqA)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit A = %d", code)
	}
	if !ackA2.Cached || ackA2.JobID != ackA.JobID {
		t.Fatalf("resubmit A: cached=%v job=%s, want cache hit on %s", ackA2.Cached, ackA2.JobID, ackA.JobID)
	}
	var after serve.Status
	getJSONInto(t, base+"/datasets/"+dsInfo.ID+"/budget", &after)
	if after.SpentRho != budget.SpentRho {
		t.Fatalf("cached resubmit changed spend: %v → %v", budget.SpentRho, after.SpentRho)
	}
	waitJobState(t, base, ackA.JobID, 60*time.Second, func(i serve.JobInfo) bool {
		return i.State == serve.JobDone && i.Records > 0
	})
	res, err := http.Get(base + "/jobs/" + ackA.JobID + "/result.csv")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("regenerated result.csv = %d", res.StatusCode)
	}

	// The recovery log line made it to the daemon's output.
	if !strings.Contains(logs.String(), "interrupted") {
		t.Fatalf("no recovery log line; logs:\n%s", logs.String())
	}

	_ = daemon2.Process.Signal(os.Interrupt)
	_ = daemon2.Wait()
}

// putWindowHTTP PUTs one whole window at the daemon.
func putWindowHTTP(t *testing.T, base, dsID string, bucket int64, body string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut,
		fmt.Sprintf("%s/datasets/%s/windows/%d", base, dsID, bucket), strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/csv")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestCrashRestartFollowIngest is the continuous-ingest acceptance
// walkthrough against the real daemon: PUT windows stream through a
// follow job as they land, the per-window-key ledger holds ONE
// window's ρ across distinct buckets, kill -9 mid-follow and restart
// RESUMES the job at the next bucket with per-key positions intact
// (spend monotone, and exactly unchanged — re-released buckets do not
// re-charge), the sealed release is byte-identical to batch
// SynthesizeTimeWindows at the same seed, and an epoch-2 re-release
// of one bucket doubles only that key's spend.
func TestCrashRestartFollowIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and SIGKILLs a daemon subprocess; skipped in -short")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "netdpsynd")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build daemon: %v\n%s", err, out)
	}
	stateDir := filepath.Join(tmp, "state")

	// A sorted trace cut into 3 span buckets, rendered per window. The
	// emulator's extra columns are dropped through the canonical flow
	// schema first — the daemon's dataset schema is what both sides
	// must share.
	gen, err := datagen.Generate(datagen.TON, datagen.Config{Rows: 360, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var genCSV bytes.Buffer
	if err := gen.WriteCSV(&genCSV); err != nil {
		t.Fatal(err)
	}
	raw, err := netdpsyn.LoadCSV(&genCSV, netdpsyn.FlowSchema(datagen.LabelField(datagen.TON)))
	if err != nil {
		t.Fatal(err)
	}
	raw = raw.SortBy(raw.Schema().Index(netdpsyn.FieldTS))
	tsCol := raw.Column(raw.Schema().Index(netdpsyn.FieldTS))
	span := (tsCol[len(tsCol)-1]-tsCol[0])/3 + 1
	bucketOf := func(ts int64) int64 { return netdpsyn.TimeBucket(ts, span) }
	type cut struct {
		bucket int64
		body   string
		tab    *netdpsyn.Table
	}
	var cuts []cut
	for lo := 0; lo < raw.NumRows(); {
		b := bucketOf(tsCol[lo])
		hi := lo
		for hi < raw.NumRows() && bucketOf(tsCol[hi]) == b {
			hi++
		}
		part := netdpsyn.NewTable(raw.Schema(), hi-lo)
		if err := part.AppendRowRange(raw, lo, hi); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := part.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		cuts = append(cuts, cut{bucket: b, body: buf.String(), tab: part})
		lo = hi
	}
	if len(cuts) < 3 {
		t.Fatalf("want ≥ 3 buckets, got %d", len(cuts))
	}
	cuts = cuts[:3]

	jobRho, err := netdpsyn.RhoFromEpsDelta(1.0, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	addr := freePort(t)
	base := "http://" + addr
	var logs syncBuffer
	daemon := startDaemon(t, bin, addr, stateDir, &logs)
	defer func() { _ = daemon.Process.Kill() }()

	// Register a live feed with a 2.5ρ ceiling: one full release plus
	// one single-bucket re-release fit; a third release does not.
	regURL := fmt.Sprintf("%s/datasets?label=%s&feed=1&span=%d&budget_rho=%g&budget_delta=1e-5",
		base, datagen.LabelField(datagen.TON), span, 2.5*jobRho)
	resp, err := http.Post(regURL, "text/csv", nil)
	if err != nil {
		t.Fatal(err)
	}
	var dsInfo serve.Info
	if err := json.NewDecoder(resp.Body).Decode(&dsInfo); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || !dsInfo.Feed {
		t.Fatalf("feed register = %d (%+v)", resp.StatusCode, dsInfo)
	}

	follow := serve.SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Seed: 31, Follow: true}
	ack, code := postSynth(t, base, dsInfo.ID, follow)
	if code != http.StatusAccepted || !ack.Follow || ack.Epoch != 1 {
		t.Fatalf("follow submit = %d (%+v)", code, ack)
	}

	// Two windows land pre-crash; each synthesizes as it arrives.
	for i, c := range cuts[:2] {
		if code := putWindowHTTP(t, base, dsInfo.ID, c.bucket, c.body); code != http.StatusCreated {
			t.Fatalf("PUT window %d = %d", c.bucket, code)
		}
		waitJobState(t, base, ack.JobID, 60*time.Second, func(info serve.JobInfo) bool {
			return info.WindowsDone >= i+1
		})
	}
	var budget serve.Status
	getJSONInto(t, base+"/datasets/"+dsInfo.ID+"/budget", &budget)
	if math.Abs(budget.SpentRho-jobRho) > 1e-12 {
		t.Fatalf("pre-crash spend = %v, want one window's %v (parallel over %d distinct keys)",
			budget.SpentRho, jobRho, 2)
	}

	// kill -9 mid-follow.
	if err := daemon.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = daemon.Wait()

	daemon2 := startDaemon(t, bin, addr, stateDir, &logs)
	defer func() { _ = daemon2.Process.Kill() }()

	// The follow job RESUMED (not a charged failure): it re-emits the
	// two charged windows at zero new cost and waits for the next
	// bucket. Spend is monotone AND exactly preserved per key.
	waitJobState(t, base, ack.JobID, 60*time.Second, func(info serve.JobInfo) bool {
		return info.State == serve.JobRunning && info.WindowsDone >= 2
	})
	getJSONInto(t, base+"/datasets/"+dsInfo.ID+"/budget", &budget)
	if math.Abs(budget.SpentRho-jobRho) > 1e-12 {
		t.Fatalf("post-restart spend = %v, want %v unchanged (per-key positions intact)", budget.SpentRho, jobRho)
	}
	if len(budget.WindowRho) != 2 {
		t.Fatalf("post-restart window keys = %v, want the 2 pre-crash keys", budget.WindowRho)
	}
	if !strings.Contains(logs.String(), "follow job(s) resumed") {
		t.Fatalf("no resume log line; logs:\n%s", logs.String())
	}

	// The third bucket lands after the restart: the job picks it up.
	if code := putWindowHTTP(t, base, dsInfo.ID, cuts[2].bucket, cuts[2].body); code != http.StatusCreated {
		t.Fatalf("post-restart PUT = %d", code)
	}
	waitJobState(t, base, ack.JobID, 60*time.Second, func(info serve.JobInfo) bool {
		return info.WindowsDone >= 3
	})

	// Seal → done, and the release is byte-identical to the batch
	// time-span path over the assembled trace at the same seed.
	sresp, err := http.Post(base+"/datasets/"+dsInfo.ID+"/seal", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("seal = %d", sresp.StatusCode)
	}
	waitJobState(t, base, ack.JobID, 60*time.Second, func(info serve.JobInfo) bool {
		return info.State == serve.JobDone
	})
	res, err := http.Get(base + "/jobs/" + ack.JobID + "/result.csv")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("result.csv = %d", res.StatusCode)
	}
	syn, err := netdpsyn.New(netdpsyn.Config{Epsilon: 1, Delta: 1e-5, UpdateIterations: 3, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	// The released trace is the three PUT windows (the grid may have
	// cut a fourth bucket that never landed), so the batch reference
	// runs over exactly those records.
	assembled := netdpsyn.NewTable(raw.Schema(), raw.NumRows())
	for _, c := range cuts {
		if err := assembled.AppendRowRange(c.tab, 0, c.tab.NumRows()); err != nil {
			t.Fatal(err)
		}
	}
	var want bytes.Buffer
	first := true
	if err := syn.SynthesizeTimeWindows(assembled, span, func(wr netdpsyn.WindowResult) error {
		if first {
			first = false
			return wr.Table.WriteCSV(&want)
		}
		return wr.Table.WriteCSVBody(&want)
	}); err != nil {
		t.Fatal(err)
	}
	if string(got) != want.String() {
		g, w := strings.Split(string(got), "\n"), strings.Split(want.String(), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("followed release differs from batch SynthesizeTimeWindows at the same seed: %d vs %d lines, first divergence line %d:\n got %q\nwant %q",
					len(g), len(w), i+1, g[i], w[i])
			}
		}
		t.Fatalf("followed release differs from batch SynthesizeTimeWindows at the same seed: %d vs %d lines (prefix identical)", len(g), len(w))
	}

	// Epoch 2: re-PUT one bucket and release it again — only that
	// key's spend doubles.
	if code := putWindowHTTP(t, base, dsInfo.ID, cuts[0].bucket, cuts[0].body); code != http.StatusCreated {
		t.Fatalf("epoch-2 PUT = %d", code)
	}
	follow2 := follow
	follow2.Seed = 32
	ack2, code := postSynth(t, base, dsInfo.ID, follow2)
	if code != http.StatusAccepted || ack2.Epoch != 2 {
		t.Fatalf("epoch-2 follow = %d (%+v)", code, ack2)
	}
	waitJobState(t, base, ack2.JobID, 60*time.Second, func(info serve.JobInfo) bool {
		return info.WindowsDone >= 1
	})
	getJSONInto(t, base+"/datasets/"+dsInfo.ID+"/budget", &budget)
	if math.Abs(budget.SpentRho-2*jobRho) > 1e-12 {
		t.Fatalf("re-release spend = %v, want %v (only the re-released key doubles)", budget.SpentRho, 2*jobRho)
	}
	doubled := 0
	for _, v := range budget.WindowRho {
		if math.Abs(v-2*jobRho) < 1e-12 {
			doubled++
		} else if math.Abs(v-jobRho) > 1e-12 {
			t.Fatalf("unexpected key spend %v in %v", v, budget.WindowRho)
		}
	}
	if doubled != 1 {
		t.Fatalf("%d keys doubled, want exactly 1: %v", doubled, budget.WindowRho)
	}

	_ = daemon2.Process.Signal(os.Interrupt)
	_ = daemon2.Wait()
}

// postEval submits an evaluation of a finished job over plain HTTP.
func postEval(t *testing.T, base, dsID string, req serve.EvaluationRequest) (serve.EvaluationResponse, int) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/datasets/"+dsID+"/evaluate", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack serve.EvaluationResponse
	_ = json.NewDecoder(resp.Body).Decode(&ack)
	return ack, resp.StatusCode
}

// TestCrashRestartEvaluation is the evaluation leg of the crash
// contract: an admitted raw-touching evaluation is charged at the
// journal before it computes anything, so a SIGKILL while it waits
// behind the single runner must replay it as a charged failure —
// never a refund — while a finished free evaluation's scores survive
// the restart verbatim from the terminal record.
func TestCrashRestartEvaluation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and SIGKILLs a daemon subprocess; skipped in -short")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "netdpsynd")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build daemon: %v\n%s", err, out)
	}
	stateDir := filepath.Join(tmp, "state")

	jobRho, err := netdpsyn.RhoFromEpsDelta(1.0, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	// Job A + job B + one raw evaluation fit (3ρ); a second raw
	// evaluation does not.
	ceiling := 3.5 * jobRho

	addr := freePort(t)
	base := "http://" + addr
	var logs syncBuffer
	daemon := startDaemon(t, bin, addr, stateDir, &logs)
	defer func() { _ = daemon.Process.Kill() }()

	raw, err := datagen.Generate(datagen.TON, datagen.Config{Rows: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if err := raw.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	regURL := fmt.Sprintf("%s/datasets?label=%s&budget_rho=%s&budget_delta=1e-5",
		base, datagen.LabelField(datagen.TON), strconv.FormatFloat(ceiling, 'f', -1, 64))
	resp, err := http.Post(regURL, "text/csv", &csvBuf)
	if err != nil {
		t.Fatal(err)
	}
	var dsInfo serve.Info
	if err := json.NewDecoder(resp.Body).Decode(&dsInfo); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register = %d", resp.StatusCode)
	}

	// Job A: quick release to evaluate.
	reqA := serve.SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 3, Seed: 11}
	ackA, code := postSynth(t, base, dsInfo.ID, reqA)
	if code != http.StatusAccepted {
		t.Fatalf("job A = %d", code)
	}
	infoA := waitJobState(t, base, ackA.JobID, 60*time.Second, func(i serve.JobInfo) bool {
		return i.State == serve.JobDone || i.State == serve.JobFailed
	})
	if infoA.State != serve.JobDone {
		t.Fatalf("job A = %s (%s)", infoA.State, infoA.Error)
	}

	// A free release-only evaluation completes pre-crash: ρ = 0, and
	// its scores must survive the restart from the terminal record.
	freeAck, code := postEval(t, base, dsInfo.ID, serve.EvaluationRequest{JobID: ackA.JobID})
	if code != http.StatusAccepted || freeAck.Rho != 0 {
		t.Fatalf("free eval = %d (ρ=%v), want 202 at ρ=0", code, freeAck.Rho)
	}
	freeInfo := waitJobState(t, base, freeAck.JobID, 60*time.Second, func(i serve.JobInfo) bool {
		return i.State == serve.JobDone || i.State == serve.JobFailed
	})
	if freeInfo.State != serve.JobDone || freeInfo.Evaluation == nil || freeInfo.Evaluation.Release.Rows == 0 {
		t.Fatalf("free eval = %s (%s), want done with a release block", freeInfo.State, freeInfo.Error)
	}
	var budget serve.Status
	getJSONInto(t, base+"/datasets/"+dsInfo.ID+"/budget", &budget)
	if math.Abs(budget.SpentRho-jobRho) > 1e-12 {
		t.Fatalf("spend after free eval = %v, want job A's %v untouched", budget.SpentRho, jobRho)
	}

	// Job B: heavy enough to occupy the single runner while the raw
	// evaluation sits admitted-and-charged in the backlog.
	reqB := serve.SynthesisRequest{Epsilon: 1, Delta: 1e-5, Iterations: 120000, Seed: 12}
	ackB, code := postSynth(t, base, dsInfo.ID, reqB)
	if code != http.StatusAccepted {
		t.Fatalf("job B = %d", code)
	}
	waitJobState(t, base, ackB.JobID, 30*time.Second, func(i serve.JobInfo) bool {
		return i.State == serve.JobRunning
	})

	// Raw evaluation: charged at admission (journal fsync before the
	// 202), queued behind B.
	evalReq := serve.EvaluationRequest{JobID: ackA.JobID, Metrics: []string{"tvd", "mia"}, Seed: 5}
	evalAck, code := postEval(t, base, dsInfo.ID, evalReq)
	if code != http.StatusAccepted {
		t.Fatalf("raw eval = %d", code)
	}
	if math.Abs(evalAck.Rho-jobRho) > 1e-12 {
		t.Fatalf("raw eval ρ = %v, want %v", evalAck.Rho, jobRho)
	}
	getJSONInto(t, base+"/datasets/"+dsInfo.ID+"/budget", &budget)
	preCrash := budget.SpentRho
	if math.Abs(preCrash-3*jobRho) > 1e-12 {
		t.Fatalf("pre-crash spend = %v, want %v (A + B + eval)", preCrash, 3*jobRho)
	}

	// kill -9 with the evaluation still queued.
	if err := daemon.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = daemon.Wait()

	daemon2 := startDaemon(t, bin, addr, stateDir, &logs)
	defer func() { _ = daemon2.Process.Kill() }()

	// (1) Spend is monotone — the admitted evaluation is never
	// refunded, even though it computed nothing.
	getJSONInto(t, base+"/datasets/"+dsInfo.ID+"/budget", &budget)
	if budget.SpentRho < preCrash-1e-12 {
		t.Fatalf("spend shrank across kill -9: %v < %v", budget.SpentRho, preCrash)
	}

	// (2) The interrupted evaluation replays as a charged failure.
	var evalInfo serve.JobInfo
	if code := getJSONInto(t, base+"/jobs/"+evalAck.JobID, &evalInfo); code != http.StatusOK {
		t.Fatalf("GET interrupted eval = %d", code)
	}
	if evalInfo.Kind != serve.KindEvaluate || evalInfo.TargetJob != ackA.JobID {
		t.Fatalf("restored eval kind=%q target=%q, want evaluate/%s", evalInfo.Kind, evalInfo.TargetJob, ackA.JobID)
	}
	if evalInfo.State != serve.JobFailed || !strings.Contains(evalInfo.Error, "restart") {
		t.Fatalf("interrupted eval = %s (%q), want charged failure mentioning the restart", evalInfo.State, evalInfo.Error)
	}

	// (3) The finished free evaluation's scores came back from the
	// journal, not from recomputation.
	var freeAfter serve.JobInfo
	if code := getJSONInto(t, base+"/jobs/"+freeAck.JobID, &freeAfter); code != http.StatusOK {
		t.Fatalf("GET free eval = %d", code)
	}
	if freeAfter.State != serve.JobDone || freeAfter.Evaluation == nil {
		t.Fatalf("free eval after restart = %s, want done with its evaluation block", freeAfter.State)
	}
	if freeAfter.Evaluation.Release.Rows != freeInfo.Evaluation.Release.Rows {
		t.Fatalf("free eval rows changed across restart: %d → %d",
			freeInfo.Evaluation.Release.Rows, freeAfter.Evaluation.Release.Rows)
	}

	// (4) Another raw evaluation would cross the ceiling: 403.
	if _, code := postEval(t, base, dsInfo.ID, evalReq); code != http.StatusForbidden {
		t.Fatalf("over-ceiling eval after restart = %d, want 403", code)
	}

	// (5) Kind filtering over the recovered state: exactly the two
	// evaluations, newest first.
	var listed []serve.JobInfo
	if code := getJSONInto(t, base+"/jobs?dataset="+dsInfo.ID+"&kind=evaluate", &listed); code != http.StatusOK {
		t.Fatalf("list kind=evaluate = %d", code)
	}
	if len(listed) != 2 {
		t.Fatalf("kind=evaluate listed %d jobs, want 2", len(listed))
	}

	_ = daemon2.Process.Signal(os.Interrupt)
	_ = daemon2.Wait()
}
