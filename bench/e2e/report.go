package main

// result is the line a run ends with: whether every output verified,
// how many operations were attempted and failed at the HTTP level, and
// the metrics by name.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) add(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// endToEnd reports what a user of the daemon sees: latency (median
// and tail), delivered rows per second, set-up time, and peak memory.
func (s *trial) endToEnd(r *result, m *measurement, setupS []float64) error {
	lat := opValues(m.ops, func(op sample) float64 { return op.latency })
	tail, err := s.tail(lat)
	if err != nil {
		return err
	}
	r.add("latency_p50_ms", percentile(lat, 0.5), "ms")
	r.add("latency_tail_ms", tail, "ms")
	r.add("throughput_rows_per_s", float64(m.rows)/m.wall.Seconds(), "rows/s")
	r.add("setup_s", percentile(setupS, 0.5), "s")
	r.add("rss_peak_mb", m.rssMB, "MB")
	return nil
}

// tail is the workload's tail percentile of xs. Count-bound smoke
// runs collect too few samples to support it and report the plain
// percentile instead.
func (s *trial) tail(xs []float64) (float64, error) {
	if s.o.ops > 0 || s.o.windows > 0 {
		return percentile(xs, s.w.tail), nil
	}
	return tailPercentile(xs, s.w.tail)
}

// stages are the engine's pipeline stages, as job traces name them.
var stages = []string{"preprocess", "select", "publish", "postprocess", "gum", "decode"}

// perLayer reports where the latency went, from the traced spans of
// every operation, the /metrics diff over the measured phase, and the
// probes. README.md maps each to the end-to-end metric it moves.
func (s *trial) perLayer(r *result, m *measurement, before, after scrape, dir string) error {
	p50 := func(f func(*opTrace) float64) float64 {
		return percentile(opValues(m.ops, func(op sample) float64 { return f(op.tr) }), 0.5)
	}
	named := func(name string) func(*opTrace) float64 {
		return func(t *opTrace) float64 { return t.named(name) }
	}
	lat := opValues(m.ops, func(op sample) float64 { return op.latency })
	r.add("e2e.latency_ms.p50", percentile(lat, 0.5), "ms")
	r.add("e2e.samples", float64(len(m.ops)), "count")
	r.add("unaccounted_ms.p50", p50(func(t *opTrace) float64 { return t.unaccounted() }), "ms")

	r.add("serve.submit_ms.p50", p50(named("serve.submit")), "ms")
	submit, err := s.tail(opValues(m.ops, func(op sample) float64 { return op.tr.named("serve.submit") }))
	if err != nil {
		return err
	}
	r.add("serve.submit_ms.tail", submit, "ms")
	r.add("serve.queue_wait_ms.p50", p50(named("serve.queue_wait")), "ms")
	r.add("serve.job_other_ms.p50", p50(func(t *opTrace) float64 { return t.self("serve.job") }), "ms")
	r.add("serve.fetch_ms.p50", p50(named("serve.fetch")), "ms")
	r.add("serve.poll_count.mean", mean(opValues(m.ops, func(op sample) float64 { return float64(op.polls) })), "count")

	submitRoute := "POST /datasets/{id}/synthesize"
	if s.w.follow {
		submitRoute = "PUT /datasets/{id}/windows/{bucket}"
	}
	r.add("serve.handler_ms.submit", histMeanMS(before, after, "netdpsynd_http_request_seconds", "route", submitRoute), "ms")

	for _, st := range stages {
		r.add("core."+st+"_ms.p50", p50(named("core."+st)), "ms")
	}
	r.add("core.gum_busy_ms.p50", p50(func(t *opTrace) float64 { return t.busy("core.gum") }), "ms")
	// The daemon's own stage histogram, per pipeline run (one per
	// window for windowed jobs): a cross-check on the trace spans.
	r.add("core.gum_ms.mean", histMeanMS(before, after, "netdpsynd_stage_seconds", "stage", "gum", "clock", "wall"), "ms")

	ops := float64(m.attempted)
	_, fsyncs := histDelta(before, after, "netdpsynd_journal_fsync_seconds")
	r.add("persist.appends_per_op", familyDelta(before, after, "netdpsynd_journal_appends_total")/ops, "count")
	r.add("persist.fsync_per_op", fsyncs/ops, "count")
	r.add("persist.fsync_ms.mean", histMeanMS(before, after, "netdpsynd_journal_fsync_seconds"), "ms")
	r.add("persist.state_bytes_per_op", familyDelta(before, after, "netdpsynd_state_bytes")/ops, "bytes")
	appendMS, err := probeAppend(dir)
	if err != nil {
		return err
	}
	r.add("persist.append_fsync_ms.p50", appendMS, "ms")

	upload := s.in.csv
	if s.w.follow {
		if upload, err = s.pool.render(0, 0); err != nil {
			return err
		}
	}
	decodeMS, err := probeDecode(upload, s.in.schema)
	if err != nil {
		return err
	}
	r.add("dataset.decode_ms", decodeMS, "ms")
	encodeMS, err := probeEncode(m.result)
	if err != nil {
		return err
	}
	r.add("dataset.encode_ms", encodeMS, "ms")

	r.add("gen.late_ms.max", m.lateMax, "ms")
	if s.w.follow {
		r.add("follow.backlog_max", float64(m.backlogMax), "count")
	}
	return nil
}

// histMeanMS is a histogram's mean observation over the measured
// phase, in ms (0 when it observed nothing).
func histMeanMS(before, after scrape, name string, labels ...string) float64 {
	sum, count := histDelta(before, after, name, labels...)
	if count == 0 {
		return 0
	}
	return sum / count * 1e3
}

func opValues(ops []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = f(op)
	}
	return out
}
