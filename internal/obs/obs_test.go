package obs

import (
	"strings"
	"sync"
	"testing"

	"github.com/netdpsyn/netdpsyn/internal/obs/obstest"
)

func TestGetOrCreateIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", L("k", "v"))
	b := r.Counter("x_total", "help", L("k", "v"))
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	c := r.Counter("x_total", "help", L("k", "w"))
	if a == c {
		t.Fatal("different label value must return a different counter")
	}
	// Label order must not matter.
	g1 := r.Gauge("g", "help", L("a", "1"), L("b", "2"))
	g2 := r.Gauge("g", "help", L("b", "2"), L("a", "1"))
	if g1 != g2 {
		t.Fatal("label order must not distinguish samples")
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("x_total", "help")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "2x", "a-b", "a b"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q must panic", bad)
				}
			}()
			r.Counter(bad, "help")
		}()
	}
}

func TestGaugeSetAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g", "help")
	g.Set(2.5)
	g.Add(-1.0)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "help", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	if got := h.Count(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`h_seconds_bucket{le="0.1"} 1`,
		`h_seconds_bucket{le="1"} 2`,
		`h_seconds_bucket{le="10"} 3`,
		`h_seconds_bucket{le="+Inf"} 4`,
		`h_seconds_sum 55.55`,
		`h_seconds_count 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if err := obstest.ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("own output fails validation: %v", err)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "line1\nline2", L("p", `a"b\c`+"\nd")).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `# HELP esc_total line1\nline2`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `esc_total{p="a\"b\\c\nd"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
	if err := obstest.ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("escaped output fails validation: %v", err)
	}
}

func TestGaugeFuncEvaluatedAtScrape(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	var mu sync.Mutex
	r.GaugeFunc("fn", "help", func() float64 { mu.Lock(); defer mu.Unlock(); return v })
	scrape := func() string {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if out := scrape(); !strings.Contains(out, "fn 1\n") {
		t.Fatalf("want fn 1 in:\n%s", out)
	}
	mu.Lock()
	v = 7.5
	mu.Unlock()
	if out := scrape(); !strings.Contains(out, "fn 7.5\n") {
		t.Fatalf("want fn 7.5 in:\n%s", out)
	}
}

func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	h := r.Histogram("h", "help", ExpBuckets(0.001, 10, 4))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j) / 100)
				r.Gauge("g_dyn", "help", L("w", string(rune('a'+i)))).Set(float64(j))
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if err := r.WritePrometheus(&strings.Builder{}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if diff := got[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
}
