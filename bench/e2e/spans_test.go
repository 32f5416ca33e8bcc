package main

import (
	"testing"
	"time"
)

func TestSelfTimeAndUnaccounted(t *testing.T) {
	base := time.Unix(100, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }

	// Root [0, 100]. Children overlap ([0, 10] and [5, 20]), leave a gap
	// ([20, 30]), and one starts before the root ([-5, 2]) and is
	// clipped. Uncovered: [20, 30] and [90, 100] = 20 ms.
	tr := newOpTrace("op-1", "e2e.release", at(0))
	tr.add("serve.submit", 0, at(0), at(10))
	tr.add("serve.queue_wait", 0, at(5), at(20))
	tr.add("gen.late", 0, at(-5), at(2))
	job := tr.add("serve.job", 0, at(30), at(90))
	tr.add("core.gum", job, at(30), at(70))
	tr.add("core.decode", job, at(75), at(85))
	// Reversed readings of overlapping work record an empty span.
	if i := tr.add("serve.fetch", 0, at(95), at(91)); tr.spans[i].ms() != 0 {
		t.Fatalf("a span ending before it starts lasted %v ms", tr.spans[i].ms())
	}
	tr.finish(at(100))

	if got := tr.unaccounted(); got != 20 {
		t.Errorf("unaccounted = %v ms, want 20", got)
	}
	if got := tr.self("serve.job"); got != 10 {
		t.Errorf("serve.job self time = %v ms, want 10", got)
	}
	if got := tr.named("core.gum") + tr.named("core.decode"); got != 50 {
		t.Errorf("stage time = %v ms, want 50", got)
	}

	// A derived job span covers only its stages: the 5 ms and 5 ms gaps
	// between and after them become unaccounted too.
	tr.spans[job].Derived = true
	if got := tr.unaccounted(); got != 30 {
		t.Errorf("unaccounted with a derived job span = %v ms, want 30", got)
	}
	if got := tr.self("serve.job"); got != 10 {
		t.Errorf("derived serve.job self time = %v ms, want 10", got)
	}
}
