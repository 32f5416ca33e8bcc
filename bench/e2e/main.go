// Command e2e is netdpsynd's end-to-end benchmark. It builds the
// daemon from the repository, runs it as a subprocess with a durable
// state dir, and drives a workload over loopback HTTP from this single
// process, timing what a client waits on and verifying every output.
// See README.md for the workloads, metrics and claim protocol.
//
//	bash bench/e2e/run.sh --workload release --seed 1 --seconds 30 --trace 0
//	bash bench/e2e/run.sh --seed 1 --trace 1       # the three declared workloads, per-layer metrics
//	bash bench/e2e/run.sh --runs 5                 # median and IQR over five runs
//	bash bench/e2e/run.sh --workload follow        # the live-feed workload, outside the benchmark of record
//
// A run's last line on standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// A wrong output ends the run with a non-zero exit and no result line.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: release, span, release-large, or follow (empty = the first three, which BENCHMARK.json declares)")
		seed    = flag.Uint64("seed", 1, "seed for the generated traces and request seeds")
		seconds = flag.Float64("seconds", 30, "length of the measured phase in seconds")
		traced  = flag.Int("trace", 0, "1 = traced run: report per-layer metrics instead of end-to-end ones")
		runs    = flag.Int("runs", 1, "run each workload this many times (seeds seed, seed+1, ...; workload order alternating) and print each metric's median and IQR")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *runs); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

// run builds netdpsynd from the repository in the working directory and
// runs the workloads, keeping all scratch state in .bench_build/e2e.
func run(name string, seed uint64, seconds float64, traced bool, runs int) error {
	if seconds <= 0 || runs < 1 {
		return fmt.Errorf("-seconds must be positive and -runs at least 1")
	}
	ws := workloads
	if name != "" {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		ws = []*workload{w}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	work, err := filepath.Abs(filepath.Join(".bench_build", "e2e"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	bin, err := buildDaemon(".", work)
	if err != nil {
		return err
	}
	o := options{work: work, bin: bin, seed: seed, seconds: seconds, trace: traced}

	if runs == 1 {
		for _, w := range ws {
			res, err := runWorkload(ctx, w, o)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			printResult(w.name, res)
		}
		return nil
	}

	// Repeat mode: alternate the workload order so no workload always
	// runs on a machine the previous one just warmed or heated.
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for r := 0; r < runs; r++ {
		order := append([]*workload(nil), ws...)
		if r%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			o.seed = seed + uint64(r)
			res, err := runWorkload(ctx, w, o)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, o.seed, err)
			}
			fmt.Fprintf(os.Stderr, "run %d/%d %s seed %d: %d attempted, %d failed;", r+1, runs, w.name, o.seed, res.Attempted, res.Failed)
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for _, k := range sortedKeys(res.Metrics) {
				m := res.Metrics[k]
				values[w.name][k] = append(values[w.name][k], m.Value)
				units[k] = m.Unit
				fmt.Fprintf(os.Stderr, " %s=%.4g", k, m.Value)
			}
			fmt.Fprintln(os.Stderr)
		}
	}
	fmt.Printf("%-14s %-28s %12s %12s %12s %9s\n", "workload", "metric", "median", "q1", "q3", "iqr/med")
	for _, w := range ws {
		for _, k := range sortedKeys(values[w.name]) {
			q1, q2, q3 := quartiles(values[w.name][k])
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			fmt.Printf("%-14s %-28s %12.4f %12.4f %12.4f %8.1f%% %s\n", w.name, k, q2, q1, q3, 100*spread, units[k])
		}
	}
	return nil
}

// printResult prints every metric by name and unit, then the result
// as the JSON line that ends the output.
func printResult(workload string, res *result) {
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Printf("%s %-28s %14.4f %s\n", workload, k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	b, _ := json.Marshal(res) // a map of plain numbers and strings always encodes
	fmt.Println(string(b))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
