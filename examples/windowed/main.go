// Windowed synthesis: the scalability extension. A trace is split
// into fixed time spans — a record with timestamp ts lands in bucket
// ⌊ts/span⌋ — and each window is synthesized independently under the
// full (ε, δ) budget. This bounds the record-synthesis (GUM) cost per
// window, which the paper measures as ≈90% of total runtime. Window
// membership is a function of each record alone, so the windows
// compose in parallel: the combined output is record-level
// (ε, δ)-DP, the same guarantee as one whole-trace release.
//
//	go run ./examples/windowed
package main

import (
	"fmt"
	"log"
	"time"

	netdpsyn "github.com/netdpsyn/netdpsyn"
	"github.com/netdpsyn/netdpsyn/internal/datagen"
	"github.com/netdpsyn/netdpsyn/internal/stats"
)

func main() {
	raw, err := datagen.Generate(datagen.UGR16, datagen.Config{Rows: 20000, Seed: 41})
	if err != nil {
		log.Fatal(err)
	}
	syn, err := netdpsyn.New(netdpsyn.Config{UpdateIterations: 50, Seed: 41})
	if err != nil {
		log.Fatal(err)
	}
	// The emulated timestamps start near 0, so a span just over
	// last/n cuts the trace into buckets 0..n-1.
	ts := raw.ColumnByName(netdpsyn.FieldTS)
	var last int64
	for _, v := range ts {
		last = max(last, v)
	}

	fmt.Printf("%-10s %-10s %-12s %-14s\n", "buckets", "records", "time", "byt-EMD-vs-raw")
	rawByt := column(raw.ColumnByName("byt"))
	for _, buckets := range []int64{1, 2, 4} {
		start := time.Now()
		var byt []float64
		windows := 0
		err := syn.SynthesizeTimeWindows(raw, last/buckets+1, func(wr netdpsyn.WindowResult) error {
			windows++
			byt = append(byt, column(wr.Table.ColumnByName("byt"))...)
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		emd, err := stats.EMDSamples(rawByt, byt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10d %-10d %-12s %-14.1f\n", windows, len(byt), elapsed.Round(time.Millisecond), emd)
	}
	fmt.Println("\nEach window pays the DP noise on fewer records: windowing trades")
	fmt.Println("fidelity for bounded per-window cost, which pays off at large scale.")
}

func column(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = float64(v)
	}
	return out
}
