package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval of a traced run. Spans of one operation
// share its request id; Parent indexes the operation's span list (-1
// for the operation's root span). Client-side spans are timed around
// the HTTP calls; daemon-side spans (queue wait, job, stages) come from
// the timestamps GET /jobs/{id} reports. Both run on the same host
// clock.
type span struct {
	Name      string    `json:"name"`
	Start     time.Time `json:"start"`
	End       time.Time `json:"end"`
	Parent    int       `json:"parent"`
	RequestID string    `json:"request_id"`
	// BusyMS is the summed worker-busy time of an engine stage span.
	BusyMS float64 `json:"busy_ms,omitempty"`
	// Derived marks a span whose extent is only the hull of its
	// children, not a measured interval: it covers no more time than
	// they do.
	Derived bool `json:"derived,omitempty"`
}

func (s span) ms() float64 { return float64(s.End.Sub(s.Start)) / 1e6 }

// opTrace accumulates one operation's spans, root first.
type opTrace struct {
	id    string
	spans []span
}

func newOpTrace(id, name string, start time.Time) *opTrace {
	return &opTrace{id: id, spans: []span{{Name: name, Start: wall(start), Parent: -1, RequestID: id}}}
}

// add records a span under parent and returns its index. An interval
// whose end precedes its start (two clocks' readings of overlapping
// work) is recorded empty.
func (t *opTrace) add(name string, parent int, start, end time.Time) int {
	start, end = wall(start), wall(end)
	if end.Before(start) {
		end = start
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, RequestID: t.id})
	return len(t.spans) - 1
}

// finish closes the root span.
func (t *opTrace) finish(end time.Time) { t.spans[0].End = wall(end) }

// wall strips the monotonic reading, so client instants subtract
// against the daemon's wall-clock timestamps on one scale.
func wall(t time.Time) time.Time { return t.Round(0) }

// named returns the summed duration (ms) of every span called name.
func (t *opTrace) named(name string) float64 {
	var total float64
	for _, s := range t.spans {
		if s.Name == name {
			total += s.ms()
		}
	}
	return total
}

// busy returns the summed busy time (ms) of every span called name.
func (t *opTrace) busy(name string) float64 {
	var total float64
	for _, s := range t.spans {
		if s.Name == name {
			total += s.BusyMS
		}
	}
	return total
}

// self is the first span called name minus the time its children
// cover: the work that span does that no child accounts for.
func (t *opTrace) self(name string) float64 {
	for i, s := range t.spans {
		if s.Name == name {
			return s.ms() - t.covered(i)
		}
	}
	return 0
}

// unaccounted is the root span's time that no measured layer under it
// covers.
func (t *opTrace) unaccounted() float64 { return t.spans[0].ms() - t.covered(0) }

// covered is the length (ms) of the union of span i's children,
// clipped to span i. A derived child contributes its own children's
// time instead of its extent.
func (t *opTrace) covered(i int) float64 {
	p := t.spans[i]
	var ivs [][2]time.Time
	for _, iv := range t.childIntervals(i) {
		a, b := iv[0], iv[1]
		if a.Before(p.Start) {
			a = p.Start
		}
		if b.After(p.End) {
			b = p.End
		}
		if b.After(a) {
			ivs = append(ivs, [2]time.Time{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x][0].Before(ivs[y][0]) })
	var total time.Duration
	var cur [2]time.Time
	for k, v := range ivs {
		switch {
		case k == 0:
			cur = v
		case !v[0].After(cur[1]):
			if v[1].After(cur[1]) {
				cur[1] = v[1]
			}
		default:
			total += cur[1].Sub(cur[0])
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur[1].Sub(cur[0])
	}
	return float64(total) / 1e6
}

// childIntervals lists the measured intervals under span i.
func (t *opTrace) childIntervals(i int) [][2]time.Time {
	var out [][2]time.Time
	for c, s := range t.spans {
		switch {
		case s.Parent != i:
		case s.Derived:
			out = append(out, t.childIntervals(c)...)
		default:
			out = append(out, [2]time.Time{s.Start, s.End})
		}
	}
	return out
}

// writeSpans writes every operation's spans as one JSON array.
func writeSpans(path string, ops []*opTrace) error {
	var all []span
	for _, op := range ops {
		all = append(all, op.spans...)
	}
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
