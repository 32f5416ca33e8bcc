package core

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"github.com/netdpsyn/netdpsyn/internal/datagen"
)

// detRows and detHash pin the full-pipeline fingerprint of the fixed
// input and seed below. Any engine-ordering or RNG-stream change moves
// them; a deliberate move re-pins both here.
const (
	detRows = 1767
	detHash = 0x8aaaf82a73253506
)

// TestCrossProcessDeterminism verifies that the full pipeline output
// is identical across separate test processes (Go randomizes map
// iteration per process, so any hidden map-order dependence shows up
// here) and equals the pinned fingerprint. The assertion holds on
// linux/amd64. Other targets may fuse multiply-adds (the Go spec
// allows it), which can move float results, so there the fingerprint
// is only logged.
func TestCrossProcessDeterminism(t *testing.T) {
	raw, err := datagen.Generate(datagen.TON, datagen.Config{Rows: 1772, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Epsilon = 16
	cfg.GUM.Iterations = 30
	cfg.Seed = 42
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Synthesize(raw)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for c := 0; c < res.Table.NumCols(); c++ {
		for _, v := range res.Table.Column(c) {
			fmt.Fprintf(h, "%d,", v)
		}
	}
	rows, sum := res.Table.NumRows(), h.Sum64()
	fmt.Printf("DETHASH rows=%d hash=%x\n", rows, sum)
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Logf("fingerprint not asserted on %s/%s", runtime.GOOS, runtime.GOARCH)
		return
	}
	if rows != detRows || sum != detHash {
		t.Fatalf("fingerprint rows=%d hash=%x, pinned rows=%d hash=%x", rows, sum, detRows, uint64(detHash))
	}
}
