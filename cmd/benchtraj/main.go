// Command benchtraj compares two BENCH_stage_timings.json emissions —
// the bench trajectory. CI runs BenchmarkStageTimings with
// BENCH_STAGE_JSON set, uploads the result as an artifact on every
// push, and runs benchtraj against the committed baseline:
//
//	BENCH_STAGE_JSON=$PWD/BENCH_stage_timings.json \
//	    go test -run xxx -bench BenchmarkStageTimings -benchtime 5x .
//	go run ./cmd/benchtraj \
//	    -baseline bench/BENCH_stage_timings.baseline.json \
//	    -current  BENCH_stage_timings.json -warn-pct 15
//
// A stage whose wall time regresses by more than -warn-pct prints a
// GitHub Actions ::warning annotation but exits 0 — bench numbers on
// shared runners are noisy, so the trajectory warns humans instead of
// gating merges. Pass -hard to exit 1 on regression instead (for
// dedicated bench hardware).
//
// With -quality the comparison is BENCH_quality.json instead — the
// deterministic-seed fidelity/privacy scores of
// BenchmarkEvaluationQuality, gated by absolute tolerances (-tvd-tol,
// -acc-tol, -mia-tol); see quality.go.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// stageEntry mirrors bench_test.go's stageTimingsEntry.
type stageEntry struct {
	WallMS float64 `json:"wall_ms"`
	BusyMS float64 `json:"busy_ms"`
}

// memEntry mirrors bench_test.go's memPerOp.
type memEntry struct {
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// kernelEntry mirrors bench_test.go's kernelMeta.
type kernelEntry struct {
	GOARCH  string `json:"goarch"`
	GOAMD64 string `json:"goamd64"`
}

// stageFile mirrors bench_test.go's stageTimingsFile (unknown fields
// are ignored, so the two shapes may grow independently).
type stageFile struct {
	Benchmark string                `json:"benchmark"`
	Go        string                `json:"go"`
	Kernel    *kernelEntry          `json:"kernel"`
	N         int                   `json:"n"`
	NsPerOp   float64               `json:"ns_per_op"`
	Stages    map[string]stageEntry `json:"stages"`
	Mem       map[string]memEntry   `json:"mem"`
}

// kernelMismatch reports why the two emissions are not comparable, or
// "" when they are. Emissions measured on different compute substrates
// (a different architecture or instruction-set baseline) differ by
// construction — comparing them reads as a huge regression or a
// phantom win, so benchtraj refuses instead. A baseline that predates
// the metadata (nil Kernel) compares with a note: old baselines stay
// usable until regenerated.
func kernelMismatch(baseline, current *stageFile) string {
	b, c := baseline.Kernel, current.Kernel
	if b == nil || c == nil {
		return ""
	}
	switch {
	case b.GOARCH != c.GOARCH:
		return fmt.Sprintf("GOARCH %q vs %q", b.GOARCH, c.GOARCH)
	case b.GOAMD64 != c.GOAMD64:
		return fmt.Sprintf("GOAMD64 %q vs %q", b.GOAMD64, c.GOAMD64)
	}
	return ""
}

func load(path string) (*stageFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f stageFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(f.Stages) == 0 {
		return nil, fmt.Errorf("%s has no stages", path)
	}
	return &f, nil
}

// compare renders a per-stage trajectory table and returns the stages
// whose wall time regressed by more than warnPct percent. New stages
// (absent from the baseline) and vanished stages are reported but
// never count as regressions.
func compare(baseline, current *stageFile, warnPct float64) (table string, regressions []string) {
	names := make(map[string]bool)
	for n := range baseline.Stages {
		names[n] = true
	}
	for n := range current.Stages {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	var totalBase, totalCur float64
	table = fmt.Sprintf("%-14s %12s %12s %9s\n", "stage", "base wall-ms", "cur wall-ms", "Δ%")
	for _, n := range sorted {
		b, inBase := baseline.Stages[n]
		c, inCur := current.Stages[n]
		switch {
		case !inBase:
			table += fmt.Sprintf("%-14s %12s %12.3f %9s\n", n, "—", c.WallMS, "new")
		case !inCur:
			table += fmt.Sprintf("%-14s %12.3f %12s %9s\n", n, b.WallMS, "—", "gone")
		default:
			totalBase += b.WallMS
			totalCur += c.WallMS
			pct := 0.0
			if b.WallMS > 0 {
				pct = (c.WallMS - b.WallMS) / b.WallMS * 100
			}
			mark := ""
			if pct > warnPct {
				mark = "  ← REGRESSION"
				regressions = append(regressions,
					fmt.Sprintf("stage %s wall time regressed %.1f%% (%.3f → %.3f ms, warn threshold %g%%)",
						n, pct, b.WallMS, c.WallMS, warnPct))
			}
			table += fmt.Sprintf("%-14s %12.3f %12.3f %+8.1f%%%s\n", n, b.WallMS, c.WallMS, pct, mark)
		}
	}
	if totalBase > 0 {
		pct := (totalCur - totalBase) / totalBase * 100
		mark := ""
		if pct > warnPct {
			mark = "  ← REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("total wall time regressed %.1f%% (%.3f → %.3f ms, warn threshold %g%%)",
					pct, totalBase, totalCur, warnPct))
		}
		table += fmt.Sprintf("%-14s %12.3f %12.3f %+8.1f%%%s\n", "TOTAL", totalBase, totalCur, pct, mark)
	}
	return table, regressions
}

// compareMem renders a per-benchmark allocs/op trajectory and returns
// the benchmarks whose allocation count regressed by more than
// allocsWarnPct percent. Baselines without mem data (pre-allocs
// emissions) and new benchmarks report "—" and never regress.
func compareMem(baseline, current *stageFile, allocsWarnPct float64) (table string, regressions []string) {
	if len(baseline.Mem) == 0 && len(current.Mem) == 0 {
		return "", nil
	}
	names := make(map[string]bool)
	for n := range baseline.Mem {
		names[n] = true
	}
	for n := range current.Mem {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	table = fmt.Sprintf("%-28s %15s %15s %9s\n", "benchmark", "base allocs/op", "cur allocs/op", "Δ%")
	for _, n := range sorted {
		b, inBase := baseline.Mem[n]
		c, inCur := current.Mem[n]
		switch {
		case !inBase:
			table += fmt.Sprintf("%-28s %15s %15.0f %9s\n", n, "—", c.AllocsPerOp, "new")
		case !inCur:
			table += fmt.Sprintf("%-28s %15.0f %15s %9s\n", n, b.AllocsPerOp, "—", "gone")
		default:
			pct := 0.0
			if b.AllocsPerOp > 0 {
				pct = (c.AllocsPerOp - b.AllocsPerOp) / b.AllocsPerOp * 100
			}
			mark := ""
			if pct > allocsWarnPct {
				mark = "  ← REGRESSION"
				regressions = append(regressions,
					fmt.Sprintf("%s allocs/op regressed %.1f%% (%.0f → %.0f, warn threshold %g%%)",
						n, pct, b.AllocsPerOp, c.AllocsPerOp, allocsWarnPct))
			}
			table += fmt.Sprintf("%-28s %15.0f %15.0f %+8.1f%%%s\n", n, b.AllocsPerOp, c.AllocsPerOp, pct, mark)
		}
	}
	return table, regressions
}

func main() {
	var (
		baselinePath = flag.String("baseline", "", "committed baseline emission (default bench/BENCH_stage_timings.baseline.json, or bench/BENCH_quality.baseline.json with -quality)")
		currentPath  = flag.String("current", "", "this run's emission (default BENCH_stage_timings.json, or BENCH_quality.json with -quality)")
		warnPct      = flag.Float64("warn-pct", 15, "wall-time regression percentage that triggers a warning")
		allocsPct    = flag.Float64("allocs-warn-pct", 25, "allocs/op regression percentage that triggers a warning")
		hard         = flag.Bool("hard", false, "exit 1 on regression instead of soft-warning (dedicated bench hardware only)")
		quality      = flag.Bool("quality", false, "compare BENCH_quality.json emissions (deterministic fidelity/privacy scores) instead of stage timings")
		tvdTol       = flag.Float64("tvd-tol", 0.02, "with -quality: max absolute rise in mean marginal TVD")
		accTol       = flag.Float64("acc-tol", 0.05, "with -quality: max absolute drop in per-model synth-trained accuracy")
		miaTol       = flag.Float64("mia-tol", 0.05, "with -quality: max absolute rise in per-model MIA advantage")
	)
	flag.Parse()
	if *baselinePath == "" {
		if *quality {
			*baselinePath = "bench/BENCH_quality.baseline.json"
		} else {
			*baselinePath = "bench/BENCH_stage_timings.baseline.json"
		}
	}
	if *currentPath == "" {
		if *quality {
			*currentPath = "BENCH_quality.json"
		} else {
			*currentPath = "BENCH_stage_timings.json"
		}
	}
	if *quality {
		runQuality(*baselinePath, *currentPath, qualityTols{TVD: *tvdTol, Acc: *accTol, MIA: *miaTol}, *hard)
		return
	}

	baseline, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtraj:", err)
		os.Exit(2)
	}
	current, err := load(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtraj:", err)
		os.Exit(2)
	}
	if why := kernelMismatch(baseline, current); why != "" {
		fmt.Fprintf(os.Stderr, "benchtraj: refusing cross-substrate comparison: %s\n", why)
		fmt.Fprintln(os.Stderr, "benchtraj: regenerate the baseline on this build matrix cell, or compare like against like")
		os.Exit(2)
	}
	if baseline.Kernel == nil && current.Kernel != nil {
		fmt.Println("note: baseline predates kernel metadata — comparing anyway; regenerate it to enable the substrate guard")
	}
	fmt.Printf("bench trajectory: %s (baseline %s/N=%d vs current %s/N=%d)\n",
		current.Benchmark, baseline.Go, baseline.N, current.Go, current.N)
	table, regressions := compare(baseline, current, *warnPct)
	fmt.Print(table)
	memTable, memRegressions := compareMem(baseline, current, *allocsPct)
	if memTable != "" {
		fmt.Print(memTable)
	}
	regressions = append(regressions, memRegressions...)
	for _, r := range regressions {
		// ::warning renders as an annotation on the GitHub Actions run;
		// locally it is just a loud line.
		fmt.Printf("::warning title=bench trajectory::%s\n", r)
	}
	if len(regressions) == 0 {
		fmt.Printf("no stage regressed past %g%% wall time or %g%% allocs/op\n", *warnPct, *allocsPct)
	} else if *hard {
		os.Exit(1)
	}
}
