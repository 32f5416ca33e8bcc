package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/netdpsyn/netdpsyn/internal/datagen"
	"github.com/netdpsyn/netdpsyn/internal/trace"
)

// writeTrace writes a 400-row emulated trace and returns its path and
// a -span that cuts it into 3 fixed time windows (the emulated
// timestamps start near 0, so a span just over a third of the last
// one covers buckets 0..2).
func writeTrace(t *testing.T, dir string, sorted bool) (string, int64) {
	t.Helper()
	tab, err := datagen.Generate(datagen.UGR16, datagen.Config{Rows: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var last int64
	for _, v := range tab.ColumnByName(trace.FieldTS) {
		last = max(last, v)
	}
	if sorted {
		tab = tab.SortBy(tab.Schema().Index(trace.FieldTS))
	}
	path := filepath.Join(dir, "in.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := tab.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	return path, last/3 + 1
}

func baseOptions(in, out string) options {
	return options{
		in: in, out: out, schema: "flow", label: "label",
		eps: 2.0, delta: 1e-5, iters: 5, seed: 1, workers: 2,
	}
}

func readLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSpace(string(data)), "\n")
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	in, _ := writeTrace(t, dir, false)
	out := filepath.Join(dir, "out.csv")
	if err := run(baseOptions(in, out)); err != nil {
		t.Fatal(err)
	}
	lines := readLines(t, out)
	if len(lines) < 100 {
		t.Fatalf("output too small: %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "srcip,") {
		t.Fatalf("missing header: %q", lines[0])
	}
}

func TestRunWindowed(t *testing.T) {
	dir := t.TempDir()
	in, span := writeTrace(t, dir, false)
	out := filepath.Join(dir, "windowed.csv")
	o := baseOptions(in, out)
	o.span = span
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	lines := readLines(t, out)
	if len(lines) < 100 {
		t.Fatalf("output too small: %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "srcip,") {
		t.Fatalf("missing header: %q", lines[0])
	}
	for i, l := range lines[1:] {
		if strings.HasPrefix(l, "srcip,") {
			t.Fatalf("stray header at line %d", i+2)
		}
	}
}

func TestRunStream(t *testing.T) {
	dir := t.TempDir()
	in, span := writeTrace(t, dir, true) // streaming needs time-ordered input
	out := filepath.Join(dir, "streamed.csv")
	o := baseOptions(in, out)
	o.stream = true
	o.span = span
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	lines := readLines(t, out)
	if len(lines) < 100 {
		t.Fatalf("output too small: %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "srcip,") {
		t.Fatalf("missing header: %q", lines[0])
	}
	for i, l := range lines[1:] {
		if strings.HasPrefix(l, "srcip,") {
			t.Fatalf("stray header at line %d", i+2)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if err := run(baseOptions("", "")); err == nil {
		t.Error("missing input must error")
	}
	o := baseOptions("nope.csv", "")
	o.schema = "bogus"
	if err := run(o); err == nil {
		t.Error("bad schema must error")
	}
	if err := run(baseOptions("definitely-missing.csv", "")); err == nil {
		t.Error("missing file must error")
	}
	o = baseOptions("in.csv", "")
	o.stream = true
	if err := run(o); err == nil || !strings.Contains(err.Error(), "-span") {
		t.Errorf("-stream without -span: err = %v, want a -span error", err)
	}
	o = baseOptions("in.csv", "")
	o.span = -1
	if err := run(o); err == nil {
		t.Error("negative -span must error")
	}
}
