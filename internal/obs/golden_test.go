package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/netdpsyn/netdpsyn/internal/obs/obstest"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/exposition.golden from the current renderer")

// goldenRegistry builds a registry with one of everything at fixed
// values, exercising sorting, label escaping, histogram rendering,
// and GaugeFunc evaluation.
func goldenRegistry() *Registry {
	r := NewRegistry()
	c := r.Counter("netdpsynd_test_requests_total", "Requests served.", L("route", "GET /jobs/{id}"), L("code", "200"))
	c.Add(17)
	r.Counter("netdpsynd_test_requests_total", "Requests served.", L("route", "GET /metrics"), L("code", "200")).Add(2)
	r.Gauge("netdpsynd_test_queue_depth", "Jobs waiting to run.").Set(3)
	r.GaugeFunc("netdpsynd_test_ready", "1 when serving traffic.", func() float64 { return 1 })
	r.Gauge("netdpsynd_test_budget_spent_rho", "Cumulative zCDP spend.", L("dataset", "1")).Set(0.78125)
	h := r.Histogram("netdpsynd_test_stage_seconds", "Stage wall time.", ExpBuckets(0.001, 10, 4), L("stage", "gum"))
	h.Observe(0.0005)
	h.Observe(0.25)
	h.Observe(42)
	r.Counter("netdpsynd_test_escape_total", "Has \\ and\nnewline.", L("p", `va"l\ue`+"\n2")).Inc()
	return r
}

// TestGoldenExposition locks the renderer's exact output: families
// sorted by name, samples by label set, canonical escaping and float
// formatting. The golden file itself must also pass the grammar
// validator, so the renderer and obstest agree.
func TestGoldenExposition(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	path := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if err := obstest.ValidateExposition(strings.NewReader(got)); err != nil {
		t.Errorf("golden exposition fails the grammar validator: %v", err)
	}
}
