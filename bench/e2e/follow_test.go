package main

import (
	"strings"
	"testing"
	"time"
)

func TestWindowCounterAcrossChunks(t *testing.T) {
	const perWindow = 3
	var csv strings.Builder
	csv.WriteString("a,b,label\n")
	for i := 0; i < 2*perWindow; i++ {
		csv.WriteString("1,2,x\n")
	}
	stream := csv.String()
	base := time.Unix(1000, 0)

	// Feed the stream in 4-byte chunks, so rows and the header split
	// across reads; window k must be timed by the chunk carrying the
	// newline of its last row.
	c := windowCounter{rowsPerWindow: perWindow}
	var want []time.Time
	lines := 0
	for i := 0; i < len(stream); i += 4 {
		chunk := stream[i:min(i+4, len(stream))]
		now := base.Add(time.Duration(i) * time.Millisecond)
		lines += strings.Count(chunk, "\n")
		if rows := lines - 1; rows > 0 && rows%perWindow == 0 && len(want) < rows/perWindow {
			want = append(want, now)
		}
		c.feed([]byte(chunk), now)
	}
	if len(c.done) != 2 {
		t.Fatalf("counted %d windows, want 2", len(c.done))
	}
	for k := range want {
		if !c.done[k].Equal(want[k]) {
			t.Errorf("window %d arrived at %v, want %v", k, c.done[k], want[k])
		}
	}

	// A partial last line is not a row: the third window stays open
	// until its final newline arrives.
	c.feed([]byte("1,2,x\n1,2,x\n1,2"), base.Add(time.Hour))
	if len(c.done) != 2 {
		t.Fatalf("a partial row completed a window: %d windows", len(c.done))
	}
	end := base.Add(2 * time.Hour)
	c.feed([]byte(",x\n"), end)
	if len(c.done) != 3 || !c.done[2].Equal(end) {
		t.Fatalf("third window: %d windows, last at %v; want 3 at %v", len(c.done), c.done[len(c.done)-1], end)
	}
}

func TestWindowCounterOneChunkManyWindows(t *testing.T) {
	c := windowCounter{rowsPerWindow: 2}
	now := time.Unix(5, 0)
	c.feed([]byte("h\n1\n2\n3\n4\n5\n"), now)
	if len(c.done) != 2 {
		t.Fatalf("5 rows of 2-row windows: %d windows, want 2", len(c.done))
	}
	for k, at := range c.done {
		if !at.Equal(now) {
			t.Errorf("window %d at %v, want %v", k, at, now)
		}
	}
}
