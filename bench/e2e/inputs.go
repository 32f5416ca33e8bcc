package main

import (
	"bytes"
	"fmt"

	netdpsyn "github.com/netdpsyn/netdpsyn"
	"github.com/netdpsyn/netdpsyn/internal/datagen"
	"github.com/netdpsyn/netdpsyn/internal/dataset"
)

// Seed streams: every random choice of a run derives from -seed
// through one of these, so traces, warm-up requests and measured
// requests never share a seed.
const (
	streamTrace = iota + 1
	streamRequest
	streamWarm
	streamWindow
	streamWarmWindow
	streamPart
)

// mix derives the i-th seed of a stream from the run seed
// (SplitMix64 over the three words).
func mix(seed uint64, stream, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + i*0x94d049bb133111eb + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// trace is a generated input trace as the daemon receives it, plus
// what the verifier needs to know about it.
type trace struct {
	// kind and label are the registration's schema query parameters;
	// schema is the table shape results must load under.
	kind, label string
	schema      *netdpsyn.Schema
	csv         []byte
	// labels is the set of label values the trace holds: synthesized
	// labels must come from it.
	labels map[string]bool
	// span and windows describe the trace's time buckets for the span
	// workload: the window span requested and how many non-empty
	// buckets it yields (spanWindows unless a bucket is empty).
	span    int64
	windows int
}

// traceParts is how many independently generated traces one input
// merges, as a collector merging several vantage points would. A run's
// cost then reflects the generator's typical trace rather than one
// draw's quirks, which keeps the spread between runs with different
// seeds small.
const traceParts = 8

// spanWindows is how many time buckets the span workload cuts its
// trace into.
const spanWindows = 8

// genTrace emulates one of the paper's datasets at exactly the given
// size, merged from parts generated traces and ts-sorted (streaming
// registration and feed windows require time order).
func genTrace(name datagen.Name, rows, parts int, seed uint64) (*dataset.Table, error) {
	per := rows / parts
	// The packet generators cut their heavy-tailed flows at a time
	// horizon, so they return only about the rows asked for, and the
	// count moves with the seed (±3% on release-large's input, which
	// moved its latency with it). Ask them for twice as many and keep
	// the earliest per rows.
	ask := per
	if datagen.IsPacket(name) {
		ask = 2 * per
	}
	var t *dataset.Table
	for k := 0; k < parts; k++ {
		part, err := datagen.Generate(name, datagen.Config{Rows: ask, Seed: mix(seed, streamPart, uint64(k))})
		if err != nil {
			return nil, err
		}
		if part.NumRows() < per {
			return nil, fmt.Errorf("%s generator gave %d rows, want at least %d", name, part.NumRows(), per)
		}
		part = part.Head(per)
		if t == nil {
			t = part
		} else if err := t.AppendRowRange(part, 0, part.NumRows()); err != nil {
			return nil, err
		}
	}
	return t.SortBy(t.Schema().Index(netdpsyn.FieldTS)), nil
}

// newTrace generates and renders an upload. Its timestamps start at
// 0, so the span workload's buckets are exactly [0, spanWindows).
func newTrace(name datagen.Name, rows int, seed uint64) (*trace, error) {
	t, err := genTrace(name, rows, traceParts, seed)
	if err != nil {
		return nil, err
	}
	ci := t.Schema().Index(netdpsyn.FieldTS)
	ts := t.Column(ci)
	lo := ts[0]
	for r := range ts {
		ts[r] -= lo
	}
	tr := &trace{kind: "flow", label: datagen.LabelField(name)}
	if datagen.IsPacket(name) {
		tr.kind, tr.label = "packet", ""
		tr.schema = netdpsyn.PacketSchema()
	} else {
		tr.schema = netdpsyn.FlowSchema(tr.label)
	}
	var buf bytes.Buffer
	if err := t.WriteCSV(&buf); err != nil {
		return nil, err
	}
	tr.csv = buf.Bytes()
	tr.labels = labelSet(t)

	tr.span = ts[len(ts)-1]/spanWindows + 1
	buckets := map[int64]bool{}
	for _, v := range ts {
		buckets[netdpsyn.TimeBucket(v, tr.span)] = true
	}
	tr.windows = len(buckets)
	return tr, nil
}

// labelSet returns the distinct label values of a table.
func labelSet(t *dataset.Table) map[string]bool {
	li := t.Schema().LabelIndex()
	out := map[string]bool{}
	for _, code := range t.Column(li) {
		out[t.CatValue(li, code)] = true
	}
	return out
}

// windowPool renders live-feed windows: a pool of generated 300-row
// TON traces, each re-stamped into the bucket it is PUT to.
// Rendering happens between sends, one window at a time, so the feed
// never holds more than one window's bytes.
type windowPool struct {
	span   int64
	tables []*dataset.Table
	ts     [][]int64 // each table's original timestamps
	labels map[string]bool
	buf    bytes.Buffer
}

// newWindowPool generates n windows of rows records from seeds of the
// given stream.
func newWindowPool(seed uint64, stream uint64, n, rows int, span int64) (*windowPool, error) {
	p := &windowPool{span: span, labels: map[string]bool{}}
	for k := 0; k < n; k++ {
		t, err := genTrace(datagen.TON, rows, 1, mix(seed, stream, uint64(k)))
		if err != nil {
			return nil, err
		}
		p.tables = append(p.tables, t)
		p.ts = append(p.ts, append([]int64(nil), t.ColumnByName(netdpsyn.FieldTS)...))
		for l := range labelSet(t) {
			p.labels[l] = true
		}
	}
	return p, nil
}

// render returns the CSV of pool entry k re-stamped into bucket: the
// window's timestamps are mapped, in order, onto [bucket·span,
// (bucket+1)·span). The bytes are valid until the next call.
func (p *windowPool) render(k int, bucket int64) ([]byte, error) {
	t, orig := p.tables[k%len(p.tables)], p.ts[k%len(p.ts)]
	ci := t.Schema().Index(netdpsyn.FieldTS)
	lo, hi := orig[0], orig[len(orig)-1]
	for r, v := range orig {
		t.SetValue(r, ci, bucket*p.span+(v-lo)*p.span/(hi-lo+1))
	}
	p.buf.Reset()
	if err := t.WriteCSV(&p.buf); err != nil {
		return nil, err
	}
	return p.buf.Bytes(), nil
}
