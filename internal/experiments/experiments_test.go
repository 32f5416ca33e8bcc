package experiments

import (
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/netdpsyn/netdpsyn/internal/baselines/privmrf"
	"github.com/netdpsyn/netdpsyn/internal/datagen"
)

// tinyScale keeps experiment tests fast; benches run the real scale.
func tinyScale() Scale {
	return Scale{Rows: 2500, Epsilon: 2.0, Delta: 1e-5, GUMIterations: 8, SketchRuns: 2, Seed: 42}
}

func TestGridSetGetRender(t *testing.T) {
	g := NewGrid("Title", []string{"r1", "r2"}, []string{"c1", "c2"})
	g.Set("r1", "c2", 0.5)
	if got := g.Get("r1", "c2"); got != 0.5 {
		t.Errorf("Get = %v", got)
	}
	if !math.IsNaN(g.Get("r2", "c1")) {
		t.Error("unset cell should be NaN")
	}
	if !math.IsNaN(g.Get("zz", "c1")) {
		t.Error("unknown row should be NaN")
	}
	s := g.String()
	if !strings.Contains(s, "Title") || !strings.Contains(s, "N/A") || !strings.Contains(s, "0.500") {
		t.Errorf("render missing pieces:\n%s", s)
	}
	row := g.Row("r1")
	if len(row) != 2 || row[1] != 0.5 {
		t.Errorf("Row = %v", row)
	}
	col := g.Col("c2")
	if len(col) != 2 || col[0] != 0.5 {
		t.Errorf("Col = %v", col)
	}
}

func TestNewMethodAll(t *testing.T) {
	sc := tinyScale()
	for _, name := range MethodNames {
		m, err := NewMethod(name, sc, 2.0)
		if err != nil {
			t.Fatalf("NewMethod(%s): %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("Name = %s", m.Name())
		}
	}
	if _, err := NewMethod("nope", sc, 2.0); err == nil {
		t.Error("unknown method must error")
	}
}

func TestRunnerMemoization(t *testing.T) {
	r := NewRunner(tinyScale())
	a, err := r.Raw(datagen.TON)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Raw(datagen.TON)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("raw dataset not memoized")
	}
	s1, err := r.Syn("NetDPSyn", datagen.TON)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r.Syn("NetDPSyn", datagen.TON)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("synthesis not memoized")
	}
	if r.SynTime("NetDPSyn", datagen.TON) <= 0 {
		t.Error("SynTime should be positive")
	}
}

func TestRunnerProportionalRows(t *testing.T) {
	r := NewRunner(tinyScale())
	ton, err := r.Raw(datagen.TON)
	if err != nil {
		t.Fatal(err)
	}
	ugr, err := r.Raw(datagen.UGR16)
	if err != nil {
		t.Fatal(err)
	}
	// TON is ~0.3× the others, as in Table 5.
	ratio := float64(ton.NumRows()) / float64(ugr.NumRows())
	if ratio < 0.2 || ratio > 0.4 {
		t.Errorf("TON/UGR16 row ratio = %v, want ≈0.3", ratio)
	}
}

func TestPrivMRFMemoryFailureMemoized(t *testing.T) {
	// The memory gate reflects the datasets' relative sizes, so this
	// test needs the default scale (TON ≈ 0.3× the others).
	r := NewRunner(DefaultScale())
	_, err := r.Syn("PrivMRF", datagen.CIDDS)
	if !errors.Is(err, privmrf.ErrMemoryExceeded) {
		t.Fatalf("want ErrMemoryExceeded on CIDDS, got %v", err)
	}
	// Second call hits the memoized error.
	_, err2 := r.Syn("PrivMRF", datagen.CIDDS)
	if !errors.Is(err2, privmrf.ErrMemoryExceeded) {
		t.Fatalf("memoized error lost: %v", err2)
	}
	// TON fits.
	if _, err := r.Syn("PrivMRF", datagen.TON); err != nil {
		t.Fatalf("PrivMRF should fit TON: %v", err)
	}
}

func TestTable5Summary(t *testing.T) {
	r := NewRunner(tinyScale())
	g, err := Table5(r)
	if err != nil {
		t.Fatal(err)
	}
	if g.Get("TON", "Attributes") != 11 {
		t.Errorf("TON attributes = %v", g.Get("TON", "Attributes"))
	}
	if g.Get("CAIDA", "Attributes") != 15 {
		t.Errorf("CAIDA attributes = %v", g.Get("CAIDA", "Attributes"))
	}
	for _, ds := range datagen.Datasets() {
		if g.Get(string(ds), "Records") <= 0 || g.Get(string(ds), "Domain") <= 0 {
			t.Errorf("%s summary empty", ds)
		}
	}
}

func TestTable4Renders(t *testing.T) {
	r := NewRunner(tinyScale())
	s, err := Table4(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dstport", "1-way", "2-way"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 4 rendering missing %q:\n%s", want, s)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	sc := tinyScale()
	sc.Rows = 1500
	sc.GUMIterations = 4
	r := NewRunner(sc)
	g, err := Ablations(r)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(g.Get("full", "DTAcc")) {
		t.Error("full variant has no accuracy")
	}
	if math.IsNaN(g.Get("no-tsdiff", "FlowGapEMD")) {
		t.Error("no-tsdiff variant has no EMD")
	}
}

func TestFigure2Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 2 is slow")
	}
	sc := tinyScale()
	sc.Rows = 1500
	sc.GUMIterations = 4
	r := NewRunner(sc)
	grids, err := Figure2(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(grids) != 2 {
		t.Fatalf("grids = %d", len(grids))
	}
	g := grids[datagen.DC]
	v := g.Get("CMS", "NetDPSyn")
	if math.IsNaN(v) || v < 0 {
		t.Errorf("DC CMS NetDPSyn = %v", v)
	}
}
