package main

import (
	"strings"
	"testing"
)

func stages(m map[string]float64) map[string]stageEntry {
	out := make(map[string]stageEntry, len(m))
	for n, wall := range m {
		out[n] = stageEntry{WallMS: wall, BusyMS: wall}
	}
	return out
}

func TestCompareFlagsRegressions(t *testing.T) {
	base := &stageFile{Stages: stages(map[string]float64{"gum": 100, "decode": 10, "select": 5})}
	cur := &stageFile{Stages: stages(map[string]float64{"gum": 120, "decode": 10.5, "select": 5})}

	table, regs := compare(base, cur, 15)
	if len(regs) != 2 { // gum +20%, and the total (115 → 135.5 = +17.8%)
		t.Fatalf("regressions = %v, want gum + total", regs)
	}
	if !strings.Contains(regs[0], "gum") || !strings.Contains(regs[1], "total") {
		t.Fatalf("regressions = %v", regs)
	}
	if !strings.Contains(table, "REGRESSION") || !strings.Contains(table, "TOTAL") {
		t.Fatalf("table missing markers:\n%s", table)
	}
}

func TestCompareWithinThresholdIsQuiet(t *testing.T) {
	base := &stageFile{Stages: stages(map[string]float64{"gum": 100, "decode": 10})}
	cur := &stageFile{Stages: stages(map[string]float64{"gum": 110, "decode": 9})} // +10%, -10%
	if _, regs := compare(base, cur, 15); len(regs) != 0 {
		t.Fatalf("within-threshold run flagged: %v", regs)
	}
	// Improvements are never regressions, however large.
	cur = &stageFile{Stages: stages(map[string]float64{"gum": 10, "decode": 1})}
	if _, regs := compare(base, cur, 15); len(regs) != 0 {
		t.Fatalf("improvement flagged: %v", regs)
	}
}

func TestCompareNewAndVanishedStages(t *testing.T) {
	base := &stageFile{Stages: stages(map[string]float64{"gum": 100, "legacy": 50})}
	cur := &stageFile{Stages: stages(map[string]float64{"gum": 100, "shiny": 500})}
	table, regs := compare(base, cur, 15)
	if len(regs) != 0 {
		t.Fatalf("new/vanished stages must not count as regressions: %v", regs)
	}
	if !strings.Contains(table, "new") || !strings.Contains(table, "gone") {
		t.Fatalf("table should mark new/gone stages:\n%s", table)
	}
}

func TestCompareZeroBaselineStage(t *testing.T) {
	// A 0 ms baseline stage (sub-microsecond) must not divide by zero
	// or flag on any current value.
	base := &stageFile{Stages: stages(map[string]float64{"budget": 0, "gum": 100})}
	cur := &stageFile{Stages: stages(map[string]float64{"budget": 0.4, "gum": 100})}
	if _, regs := compare(base, cur, 15); len(regs) != 0 {
		t.Fatalf("zero-baseline stage flagged: %v", regs)
	}
}

func TestKernelMismatch(t *testing.T) {
	opt := &kernelEntry{GOARCH: "amd64", GOAMD64: "v1"}
	same := *opt
	cases := []struct {
		name    string
		base    *kernelEntry
		cur     *kernelEntry
		mustSay string
	}{
		{"both nil", nil, nil, ""},
		{"baseline predates metadata", nil, opt, ""},
		{"current predates metadata", opt, nil, ""},
		{"identical", opt, &same, ""},
		{"goarch differs", opt, &kernelEntry{GOARCH: "arm64"}, "GOARCH"},
		{"goamd64 differs", opt, &kernelEntry{GOARCH: "amd64", GOAMD64: "v3"}, "GOAMD64"},
	}
	for _, tc := range cases {
		got := kernelMismatch(&stageFile{Kernel: tc.base}, &stageFile{Kernel: tc.cur})
		if tc.mustSay == "" && got != "" {
			t.Errorf("%s: kernelMismatch = %q, want comparable", tc.name, got)
		}
		if tc.mustSay != "" && !strings.Contains(got, tc.mustSay) {
			t.Errorf("%s: kernelMismatch = %q, want mention of %q", tc.name, got, tc.mustSay)
		}
	}
}

func mems(m map[string]float64) map[string]memEntry {
	out := make(map[string]memEntry, len(m))
	for n, allocs := range m {
		out[n] = memEntry{AllocsPerOp: allocs, BytesPerOp: allocs * 100}
	}
	return out
}

func TestCompareMemFlagsRegressions(t *testing.T) {
	base := &stageFile{Mem: mems(map[string]float64{"BenchmarkStageTimings": 1000, "BenchmarkFollowIngest": 500})}
	cur := &stageFile{Mem: mems(map[string]float64{"BenchmarkStageTimings": 1400, "BenchmarkFollowIngest": 550})}
	table, regs := compareMem(base, cur, 25)
	if len(regs) != 1 { // StageTimings +40%; FollowIngest +10% stays quiet
		t.Fatalf("mem regressions = %v, want 1", regs)
	}
	if !strings.Contains(regs[0], "BenchmarkStageTimings") || !strings.Contains(regs[0], "allocs/op") {
		t.Fatalf("mem regression = %v", regs)
	}
	if !strings.Contains(table, "REGRESSION") {
		t.Fatalf("mem table missing marker:\n%s", table)
	}
}

func TestCompareMemMissingBaseline(t *testing.T) {
	// A pre-allocs baseline (no mem section) must stay quiet whatever
	// the current run allocates, and an entirely mem-less pair renders
	// no table at all.
	base := &stageFile{}
	cur := &stageFile{Mem: mems(map[string]float64{"BenchmarkStageTimings": 99999})}
	table, regs := compareMem(base, cur, 25)
	if len(regs) != 0 {
		t.Fatalf("missing-baseline mem flagged: %v", regs)
	}
	if !strings.Contains(table, "new") {
		t.Fatalf("mem table should mark new benchmarks:\n%s", table)
	}
	if table, regs := compareMem(&stageFile{}, &stageFile{}, 25); table != "" || len(regs) != 0 {
		t.Fatalf("mem-less pair should render nothing, got %q %v", table, regs)
	}
}

func TestCompareMemZeroBaseline(t *testing.T) {
	// A zero-alloc baseline benchmark must not divide by zero or flag.
	base := &stageFile{Mem: mems(map[string]float64{"BenchmarkGUMSteadyState": 0})}
	cur := &stageFile{Mem: mems(map[string]float64{"BenchmarkGUMSteadyState": 1})}
	if _, regs := compareMem(base, cur, 25); len(regs) != 0 {
		t.Fatalf("zero-baseline mem flagged: %v", regs)
	}
}

func TestCompareQualityFlagsRegressions(t *testing.T) {
	base := &qualityFile{
		TVDMean:      0.70,
		MLAccuracy:   map[string]float64{"DT": 0.40, "LR": 0.40},
		RealAccuracy: map[string]float64{"DT": 0.80},
		MIAAdvantage: map[string]float64{"DT": 0.00, "LR": 0.05},
	}
	cur := &qualityFile{
		TVDMean:      0.75,                                       // +0.05 > +0.02
		MLAccuracy:   map[string]float64{"DT": 0.30, "LR": 0.39}, // DT -0.10 > 0.05; LR quiet
		RealAccuracy: map[string]float64{"DT": 0.10},             // informational, never flags
		MIAAdvantage: map[string]float64{"DT": 0.20, "LR": 0.06}, // DT +0.20 > 0.05; LR quiet
	}
	table, regs := compareQuality(base, cur, qualityTols{TVD: 0.02, Acc: 0.05, MIA: 0.05})
	if len(regs) != 3 {
		t.Fatalf("regressions = %v, want tvd + DT accuracy + DT advantage", regs)
	}
	if !strings.Contains(regs[0], "TVD") || !strings.Contains(regs[1], "accuracy") || !strings.Contains(regs[2], "advantage") {
		t.Fatalf("regressions = %v", regs)
	}
	if !strings.Contains(table, "REGRESSION") || !strings.Contains(table, "real_accuracy[DT]") {
		t.Fatalf("table missing markers:\n%s", table)
	}
}

func TestCompareQualityImprovementsAreQuiet(t *testing.T) {
	base := &qualityFile{
		TVDMean:      0.70,
		MLAccuracy:   map[string]float64{"DT": 0.40},
		MIAAdvantage: map[string]float64{"DT": 0.10},
	}
	// Fidelity, utility, and privacy all improve by a lot: no flags.
	cur := &qualityFile{
		TVDMean:      0.20,
		MLAccuracy:   map[string]float64{"DT": 0.90},
		MIAAdvantage: map[string]float64{"DT": -0.20},
	}
	if _, regs := compareQuality(base, cur, qualityTols{TVD: 0.02, Acc: 0.05, MIA: 0.05}); len(regs) != 0 {
		t.Fatalf("improvement flagged: %v", regs)
	}
}

func TestCompareQualityNewAndVanishedModels(t *testing.T) {
	base := &qualityFile{
		TVDMean:      0.70,
		MLAccuracy:   map[string]float64{"DT": 0.40, "legacy": 0.99},
		MIAAdvantage: map[string]float64{"DT": 0.00},
	}
	cur := &qualityFile{
		TVDMean:      0.70,
		MLAccuracy:   map[string]float64{"DT": 0.40, "shiny": 0.01},
		MIAAdvantage: map[string]float64{"DT": 0.00},
	}
	table, regs := compareQuality(base, cur, qualityTols{TVD: 0.02, Acc: 0.05, MIA: 0.05})
	if len(regs) != 0 {
		t.Fatalf("new/vanished models must not count as regressions: %v", regs)
	}
	if !strings.Contains(table, "new") || !strings.Contains(table, "gone") {
		t.Fatalf("table should mark new/gone models:\n%s", table)
	}
}
