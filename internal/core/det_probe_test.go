package core

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"runtime"
	"testing"

	"github.com/netdpsyn/netdpsyn/internal/datagen"
	"github.com/netdpsyn/netdpsyn/internal/dataset"
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

// releaseFingerprint runs one default-config release of raw at ε=1
// and FNV-1a hashes the output CSV. Unlike the DETHASH probe above,
// these releases bin at ε=1, so low-count bins merge.
func releaseFingerprint(t *testing.T, raw *dataset.Table, iterations int, seed uint64) (*Result, uint64) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Epsilon = 1
	cfg.GUM.Iterations = iterations
	cfg.Seed = seed
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Synthesize(raw)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	if err := res.Table.WriteCSV(h); err != nil {
		t.Fatal(err)
	}
	return res, h.Sum64()
}

// assertFingerprint fails when got differs from the pinned value on
// linux/amd64 and only logs it elsewhere (see TestCrossProcessDeterminism).
func assertFingerprint(t *testing.T, name string, rows int, got uint64, wantRows int, want uint64) {
	t.Helper()
	fmt.Printf("%s rows=%d hash=%x\n", name, rows, got)
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Logf("fingerprint not asserted on %s/%s", runtime.GOOS, runtime.GOARCH)
		return
	}
	if rows != wantRows || got != want {
		t.Fatalf("%s rows=%d hash=%x, pinned rows=%d hash=%x", name, rows, got, wantRows, want)
	}
}

// TestPacketReleaseFingerprint pins a CAIDA packet-schema release at
// ε=1. Packet flows are long, so the synthesized table has encoded
// 5-tuple clusters of more than 12 rows: decode's per-cluster
// timestamp sort leaves insertion sort there, which the
// ts-sorted flow probe above never exercises.
func TestPacketReleaseFingerprint(t *testing.T) {
	raw, err := datagen.Generate(datagen.CAIDA, datagen.Config{Rows: 3000, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	res, sum := releaseFingerprint(t, raw, 60, 17)
	group := fiveTuple(raw.Schema())
	sizes := make(map[[5]int32]int)
	biggest := 0
	for r := 0; r < res.Encoded.NumRows(); r++ {
		var k [5]int32
		for j, name := range group {
			k[j] = res.Encoded.Cols[res.Encoded.Index(name)][r]
		}
		sizes[k]++
		if sizes[k] > biggest {
			biggest = sizes[k]
		}
	}
	if biggest <= 12 {
		t.Fatalf("largest encoded 5-tuple cluster has %d rows; the probe needs one above 12", biggest)
	}
	assertFingerprint(t, "PACKETHASH", res.Table.NumRows(), sum, packetRows, packetHash)
}

// TestShuffledReleaseFingerprint pins a TON release at ε=1 whose input
// rows are not in timestamp order, so tsdiff is derived from an
// unsorted timestamp column.
func TestShuffledReleaseFingerprint(t *testing.T) {
	raw, err := datagen.Generate(datagen.TON, datagen.Config{Rows: 2500, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	shuffled := raw.Sample(rand.New(rand.NewPCG(23, 5)), raw.NumRows())
	res, sum := releaseFingerprint(t, shuffled, 60, 23)
	assertFingerprint(t, "SHUFFLEHASH", res.Table.NumRows(), sum, shuffleRows, shuffleHash)
}

// The two ε=1 release fingerprints above; a deliberate output change
// re-pins them here.
const (
	packetRows  = 2294
	packetHash  = 0x2873b26737075413
	shuffleRows = 2583
	shuffleHash = 0xdf694a43b0eeb660
)
