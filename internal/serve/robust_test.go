package serve_test

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	netdpsyn "github.com/netdpsyn/netdpsyn"
	"github.com/netdpsyn/netdpsyn/internal/datagen"
	"github.com/netdpsyn/netdpsyn/internal/serve"
	"github.com/netdpsyn/netdpsyn/internal/trace"
)

// tonCSVWith renders a 500-row ts-sorted TON trace after edit has
// changed its table.
func tonCSVWith(t *testing.T, edit func(*netdpsyn.Table)) (string, string) {
	t.Helper()
	raw, err := datagen.Generate(datagen.TON, datagen.Config{Rows: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	raw = raw.SortBy(raw.Schema().Index(netdpsyn.FieldTS))
	edit(raw)
	var buf bytes.Buffer
	if err := raw.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), datagen.LabelField(datagen.TON)
}

// send makes one request and returns its status and body.
func send(t *testing.T, ts *httptest.Server, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

// TestOutOfRangePortRefused: a trace with dstport 70000 once
// registered, was charged at synthesize, and then panicked the daemon
// in decode. Every upload path now refuses it with 400 before any
// dataset or charge exists.
func TestOutOfRangePortRefused(t *testing.T) {
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 1, AllowVolatileStream: true, AllowVolatileFeed: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	csvBody, label := tonCSVWith(t, func(tab *netdpsyn.Table) {
		col := tab.Column(tab.Schema().Index(trace.FieldDstPort))
		for r := range col {
			col[r] = 70000
		}
	})
	for _, query := range []string{"schema=flow&label=" + label, "schema=flow&stream=1&label=" + label} {
		code, body := send(t, ts, http.MethodPost, "/datasets?"+query, csvBody)
		if code != http.StatusBadRequest || !strings.Contains(body, "dstport 70000 outside 0–65535") {
			t.Fatalf("register %s = %d %s, want 400 naming the port", query, code, body)
		}
	}
	var list []serve.Info
	if code := getJSON(t, ts.Client(), ts.URL+"/datasets", &list); code != http.StatusOK || len(list) != 0 {
		t.Fatalf("datasets after refused uploads = %d %+v, want none", code, list)
	}

	info, code := register(t, ts, fmt.Sprintf("schema=flow&label=%s&feed=1&span=%d", label, int64(1)<<50), "")
	if code != http.StatusCreated {
		t.Fatalf("feed register = %d", code)
	}
	if _, code, body := putWindow(t, ts, info.ID, 0, csvBody); code != http.StatusBadRequest || !strings.Contains(body, "outside 0–65535") {
		t.Fatalf("window PUT = %d %s, want 400 naming the port", code, body)
	}
	var budget serve.Status
	if code := getJSON(t, ts.Client(), ts.URL+"/datasets/"+info.ID+"/budget", &budget); code != http.StatusOK {
		t.Fatalf("budget = %d", code)
	}
	if budget.SpentRho != 0 {
		t.Fatalf("spent_rho = %v after a refused window, want 0", budget.SpentRho)
	}
}

// TestExtremeValuesRelease: timestamps spanning the int64 range once
// ran the daemon out of memory, and a byte count at MaxInt64 hung its
// runner forever. Both now release, and the daemon stays ready.
func TestExtremeValuesRelease(t *testing.T) {
	s := newTestServer(t, serve.Options{MaxConcurrentJobs: 1, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cases := []struct {
		name  string
		field string
		rows  map[int]int64
	}{
		{"ts across int64", netdpsyn.FieldTS, map[int]int64{0: -9.2e18, 499: 9.2e18}},
		{"ts at MaxInt64", netdpsyn.FieldTS, map[int]int64{499: math.MaxInt64}},
		{"byt at MaxInt64", trace.FieldByt, map[int]int64{250: math.MaxInt64}},
	}
	for _, tc := range cases {
		csvBody, label := tonCSVWith(t, func(tab *netdpsyn.Table) {
			ci := tab.Schema().Index(tc.field)
			for r, v := range tc.rows {
				tab.SetValue(r, ci, v)
			}
		})
		info, code := register(t, ts, "schema=flow&label="+label, csvBody)
		if code != http.StatusCreated {
			t.Fatalf("%s: register = %d", tc.name, code)
		}
		var ack serve.SynthesisResponse
		req := serve.SynthesisRequest{Epsilon: 1.0, Delta: 1e-5, Iterations: 5, Seed: 11}
		if code := postJSON(t, ts.Client(), ts.URL+"/datasets/"+info.ID+"/synthesize", req, &ack); code != http.StatusAccepted {
			t.Fatalf("%s: synthesize = %d", tc.name, code)
		}
		if ji := pollJob(t, ts.Client(), ts.URL, ack.JobID); ji.State != serve.JobDone {
			t.Fatalf("%s: job = %s (%s), want done", tc.name, ji.State, ji.Error)
		}
		if code, _ := send(t, ts, http.MethodGet, "/readyz", ""); code != http.StatusOK {
			t.Fatalf("%s: readyz = %d", tc.name, code)
		}
	}
}
