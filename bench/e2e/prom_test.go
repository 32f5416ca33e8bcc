package main

import (
	"math"
	"testing"
)

const scrapeBefore = `# HELP netdpsynd_journal_appends_total Durable journal appends by record type.
# TYPE netdpsynd_journal_appends_total counter
netdpsynd_journal_appends_total{type="charge"} 3
netdpsynd_journal_appends_total{type="terminal"} 2
# TYPE netdpsynd_http_request_seconds histogram
netdpsynd_http_request_seconds_bucket{route="GET /jobs/{id}",le="0.001"} 4
netdpsynd_http_request_seconds_sum{route="GET /jobs/{id}"} 0.002
netdpsynd_http_request_seconds_count{route="GET /jobs/{id}"} 4
netdpsynd_http_request_seconds_sum{route="POST /datasets/{id}/synthesize"} 0.5
netdpsynd_http_request_seconds_count{route="POST /datasets/{id}/synthesize"} 2
netdpsynd_budget_spent_rho{dataset="ds-1"} NaN
`

// After: new series appear, label order differs from the lookup's, and
// one label value carries escapes.
const scrapeAfter = `netdpsynd_journal_appends_total{type="charge"} 10
netdpsynd_journal_appends_total{type="terminal"} 9
netdpsynd_journal_appends_total{type="window"} 4
netdpsynd_http_request_seconds_sum{route="GET /jobs/{id}"} 0.012
netdpsynd_http_request_seconds_count{route="GET /jobs/{id}"} 14
netdpsynd_http_request_seconds_sum{route="POST /datasets/{id}/synthesize"} 0.5
netdpsynd_http_request_seconds_count{route="POST /datasets/{id}/synthesize"} 2
netdpsynd_stage_seconds_sum{stage="gum",clock="wall"} 1.25
netdpsynd_stage_seconds_count{stage="gum",clock="wall"} 5
netdpsynd_stage_seconds_sum{clock="busy",stage="gum"} 99
odd_total{path="a \"quoted\" \\ value"} 7 1700000000000
netdpsynd_jobs_admitted_total 12
`

func TestScrapeDiff(t *testing.T) {
	before, err := parseScrape(scrapeBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseScrape(scrapeAfter)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(before[series("netdpsynd_budget_spent_rho", "dataset", "ds-1")]) {
		t.Error("NaN gauge value not parsed")
	}
	if got := counterDelta(before, after, "netdpsynd_journal_appends_total", "type", "charge"); got != 7 {
		t.Errorf("charge appends delta = %v, want 7", got)
	}
	if got := counterDelta(before, after, "netdpsynd_journal_appends_total", "type", "window"); got != 4 {
		t.Errorf("a series absent before counts from 0: delta = %v, want 4", got)
	}
	if got := familyDelta(before, after, "netdpsynd_journal_appends_total"); got != 18 {
		t.Errorf("family delta = %v, want 18", got)
	}
	if got := counterDelta(before, after, "netdpsynd_jobs_admitted_total"); got != 12 {
		t.Errorf("unlabelled counter delta = %v, want 12", got)
	}
	sum, count := histDelta(before, after, "netdpsynd_http_request_seconds", "route", "GET /jobs/{id}")
	if math.Abs(sum-0.010) > 1e-12 || count != 10 {
		t.Errorf("GET /jobs/{id} histogram delta = (%v, %v), want (0.010, 10)", sum, count)
	}
	if sum, count := histDelta(before, after, "netdpsynd_http_request_seconds", "route", "POST /datasets/{id}/synthesize"); sum != 0 || count != 0 {
		t.Errorf("an idle route's histogram delta = (%v, %v), want (0, 0)", sum, count)
	}
	// Lookup label order is irrelevant; each label set is its own series.
	sum, count = histDelta(before, after, "netdpsynd_stage_seconds", "clock", "wall", "stage", "gum")
	if sum != 1.25 || count != 5 {
		t.Errorf("gum wall histogram delta = (%v, %v), want (1.25, 5)", sum, count)
	}
	if got := after[series("odd_total", "path", `a "quoted" \ value`)]; got != 7 {
		t.Errorf("escaped label value: got %v, want 7", got)
	}
	if got := histMeanMS(before, after, "netdpsynd_http_request_seconds", "route", "GET /jobs/{id}"); math.Abs(got-1) > 1e-9 {
		t.Errorf("mean handler time = %v ms, want 1", got)
	}
}

func TestScrapeRejectsMalformedLines(t *testing.T) {
	for _, text := range []string{
		"metric_without_value\n",
		"m{a=\"1\" 3\n",
		"m{a=1} 3\n",
		"m not-a-number\n",
	} {
		if _, err := parseScrape(text); err == nil {
			t.Errorf("parseScrape(%q) succeeded", text)
		}
	}
}
