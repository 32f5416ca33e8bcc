// Command netdpsyn synthesizes a network trace under differential
// privacy: it reads a CSV trace (flow or packet headers), runs the
// NetDPSyn pipeline, and writes a privacy-protected synthetic CSV
// with the same schema.
//
// Usage:
//
//	netdpsyn -in flows.csv -out synthetic.csv -schema flow -label label -eps 2.0
//
// The input must contain the canonical header fields (srcip, dstip,
// srcport, dstport, proto, ts, ... — see -schema).
//
// -span partitions the trace into disjoint fixed time windows, each
// synthesized under the full (ε, δ) budget and written to the output
// as it completes:
//
//	netdpsyn -in flows.csv -span 3600        # fixed 1h time buckets (ts in seconds)
//	netdpsyn -in huge.csv -stream -span 3600
//
// A record's window is ⌊ts/span⌋, a function of that record alone, so
// the windows compose in parallel and the whole output is (ε, δ)-DP at
// record level.
//
// -stream never materializes the trace: the input is decoded in
// batches and cut into -span windows on the fly, so memory stays
// bounded at any trace length. It requires -span and an input sorted
// by the ts field.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	netdpsyn "github.com/netdpsyn/netdpsyn"
)

func main() {
	var (
		in      = flag.String("in", "", "input CSV trace (required)")
		out     = flag.String("out", "", "output CSV path (default: stdout)")
		schema  = flag.String("schema", "flow", "trace schema: flow or packet")
		label   = flag.String("label", "label", "label field name for flow schemas (e.g. type for TON)")
		eps     = flag.Float64("eps", 2.0, "privacy budget ε")
		delta   = flag.Float64("delta", 1e-5, "privacy parameter δ")
		iters   = flag.Int("iters", 200, "GUM update iterations (lower = faster, Figure 8)")
		seed    = flag.Uint64("seed", 1, "random seed (deterministic output)")
		nOut    = flag.Int("records", 0, "synthetic record count per synthesis (0 = derive from noisy totals)")
		workers = flag.Int("workers", 0, "synthesis worker pool size (0 = all cores; output is identical for any value)")
		span    = flag.Int64("span", 0, "split the trace into fixed time windows of this many ts units; record-level (ε, δ) for the whole output by parallel composition")
		stream  = flag.Bool("stream", false, "stream the input window-by-window without materializing it (bounded memory; needs -span and input sorted by ts)")
		maxRows = flag.Int("max-window-rows", 1_000_000, "in -stream mode, fail if one time bucket holds more records than this (0 = unbounded) — the bound that keeps -stream's memory bounded when the span is too coarse")
	)
	flag.Parse()
	if err := run(options{
		in: *in, out: *out, schema: *schema, label: *label,
		eps: *eps, delta: *delta, iters: *iters, seed: *seed,
		records: *nOut, workers: *workers,
		span: *span, stream: *stream, maxWindowRows: *maxRows,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "netdpsyn:", err)
		os.Exit(1)
	}
}

type options struct {
	in, out, schema, label string
	eps, delta             float64
	iters                  int
	seed                   uint64
	records, workers       int
	span                   int64
	stream                 bool
	maxWindowRows          int
}

func run(o options) error {
	if o.in == "" {
		return fmt.Errorf("missing -in (input CSV)")
	}
	if o.span < 0 {
		return fmt.Errorf("-span must be non-negative, got %d", o.span)
	}
	if o.stream && o.span == 0 {
		return fmt.Errorf("-stream cuts the input into fixed time windows: set -span")
	}
	if o.maxWindowRows < 0 {
		return fmt.Errorf("-max-window-rows must be non-negative, got %d", o.maxWindowRows)
	}
	var schema *netdpsyn.Schema
	switch o.schema {
	case "flow":
		schema = netdpsyn.FlowSchema(o.label)
	case "packet":
		schema = netdpsyn.PacketSchema()
	default:
		return fmt.Errorf("unknown -schema %q (want flow or packet)", o.schema)
	}

	f, err := os.Open(o.in)
	if err != nil {
		return err
	}
	defer f.Close()

	w := io.Writer(os.Stdout)
	if o.out != "" {
		wf, err := os.Create(o.out)
		if err != nil {
			return err
		}
		defer wf.Close()
		w = wf
	}

	syn, err := netdpsyn.New(netdpsyn.Config{
		Epsilon:          o.eps,
		Delta:            o.delta,
		UpdateIterations: o.iters,
		SynthRecords:     o.records,
		Seed:             o.seed,
		Workers:          o.workers,
	})
	if err != nil {
		return err
	}

	if o.stream {
		return runStream(syn, f, schema, w, o)
	}

	table, err := netdpsyn.LoadCSV(f, schema)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loaded %d records, %d attributes\n", table.NumRows(), table.NumCols())

	if o.span > 0 {
		total, windows, err := emitWindowed(w, func(emit func(netdpsyn.WindowResult) error) error {
			return syn.SynthesizeTimeWindows(table, o.span, emit)
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "synthesized %d records across %d fixed time windows: record-level (ε=%g, δ=%g)-DP overall (parallel composition)\n",
			total, windows, o.eps, o.delta)
		return nil
	}

	res, err := syn.Synthesize(table)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "synthesized %d records under (ε=%g, δ=%g)-DP; %d marginal sets\n",
		res.Records, res.Epsilon, res.Delta, len(res.SelectedMarginals))
	for _, set := range res.SelectedMarginals {
		fmt.Fprintf(os.Stderr, "  marginal: %v\n", set)
	}
	return res.Table.WriteCSV(w)
}

// runStream drives the bounded-memory path: windows are cut from the
// CSV stream as it decodes and written out as they are synthesized,
// so neither the input nor the output trace ever exists in memory.
func runStream(syn *netdpsyn.Synthesizer, r io.Reader, schema *netdpsyn.Schema, w io.Writer, o options) error {
	// The row cap is what keeps -stream's memory bounded when the span
	// is too coarse for the trace's density.
	opts := netdpsyn.StreamOptions{WindowSpan: o.span, MaxWindowRows: o.maxWindowRows}
	total, windows, err := emitWindowed(w, func(emit func(netdpsyn.WindowResult) error) error {
		return syn.SynthesizeStream(r, schema, opts, emit)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "streamed %d records across %d fixed time windows: record-level (ε=%g, δ=%g)-DP overall (parallel composition)\n",
		total, windows, o.eps, o.delta)
	return nil
}

// emitWindowed drives one windowed synthesis run into the shared CSV
// appender, reporting per-window progress on stderr and returning the
// totals for the caller's summary line.
func emitWindowed(w io.Writer, synth func(emit func(netdpsyn.WindowResult) error) error) (records, windows int, err error) {
	app := csvAppender{w: w}
	err = synth(func(wr netdpsyn.WindowResult) error {
		records += wr.Records
		windows++
		fmt.Fprintf(os.Stderr, "window %d: %d records\n", wr.Window+1, wr.Records)
		return app.add(wr.Table)
	})
	return records, windows, err
}

// csvAppender concatenates per-window CSVs, keeping exactly one
// header row across the whole file (keyed on the first emission, not
// window index 0, which can be empty and skipped).
type csvAppender struct {
	w       io.Writer
	started bool
}

func (a *csvAppender) add(t *netdpsyn.Table) error {
	if !a.started {
		a.started = true
		return t.WriteCSV(a.w)
	}
	return t.WriteCSVBody(a.w)
}
