package sketch

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// zipfStream builds a skewed stream of keys.
func zipfStream(n int, seed uint64) []uint64 {
	rng := rand.New(rand.NewPCG(seed, seed^77))
	keys := make([]uint64, n)
	for i := range keys {
		// Zipf-ish: key k with probability ∝ 1/(k+1).
		k := uint64(0)
		for rng.Float64() > 0.3 && k < 200 {
			k++
		}
		keys[i] = k
	}
	return keys
}

func TestCountMinOverestimates(t *testing.T) {
	// CMS point estimates never underestimate true counts.
	cms := NewCountMin(5, 512, 1)
	exact := make(map[uint64]int64)
	for _, k := range zipfStream(20000, 3) {
		cms.Update(k, 1)
		exact[k]++
	}
	for k, c := range exact {
		if est := cms.Estimate(k); est < float64(c) {
			t.Fatalf("CMS underestimated key %d: %v < %d", k, est, c)
		}
	}
}

func TestCountMinExactWhenSparse(t *testing.T) {
	cms := NewCountMin(4, 1024, 2)
	cms.Update(42, 7)
	cms.Update(43, 3)
	if est := cms.Estimate(42); est != 7 {
		t.Errorf("sparse CMS estimate = %v, want 7", est)
	}
}

func TestCountSketchUnbiasedAccurate(t *testing.T) {
	cs := NewCountSketch(5, 1024, 4)
	exact := make(map[uint64]int64)
	for _, k := range zipfStream(20000, 5) {
		cs.Update(k, 1)
		exact[k]++
	}
	// Heavy keys should be estimated within a small relative error.
	for k, c := range exact {
		if c < 1000 {
			continue
		}
		est := cs.Estimate(k)
		if math.Abs(est-float64(c))/float64(c) > 0.15 {
			t.Errorf("CS heavy key %d: est %v, true %d", k, est, c)
		}
	}
}

func TestUnivMonEstimates(t *testing.T) {
	um := NewUnivMon(5, 512, 6)
	exact := make(map[uint64]int64)
	for _, k := range zipfStream(20000, 7) {
		um.Update(k, 1)
		exact[k]++
	}
	for k, c := range exact {
		if c < 2000 {
			continue
		}
		est := um.Estimate(k)
		if math.Abs(est-float64(c))/float64(c) > 0.2 {
			t.Errorf("UM heavy key %d: est %v, true %d", k, est, c)
		}
	}
}

func TestNitroSketchApproximatesCS(t *testing.T) {
	ns := NewNitroSketch(5, 2048, 0.3, 9)
	exact := make(map[uint64]int64)
	for _, k := range zipfStream(30000, 9) {
		ns.Update(k, 1)
		exact[k]++
	}
	for k, c := range exact {
		if c < 3000 {
			continue
		}
		est := ns.Estimate(k)
		if math.Abs(est-float64(c))/float64(c) > 0.3 {
			t.Errorf("NS heavy key %d: est %v, true %d (sampled updates are noisier but not this bad)", k, est, c)
		}
	}
}

func TestNewByName(t *testing.T) {
	for _, name := range Algorithms {
		s, err := NewByName(name, 1)
		if err != nil {
			t.Fatalf("NewByName(%s): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("Name() = %s, want %s", s.Name(), name)
		}
	}
	if _, err := NewByName("nope", 1); err == nil {
		t.Error("unknown sketch must error")
	}
}

func TestHeavyHitters(t *testing.T) {
	keys := make([]uint64, 0, 1000)
	for i := 0; i < 990; i++ {
		keys = append(keys, uint64(i%500)) // light keys
	}
	for i := 0; i < 10; i++ {
		keys = append(keys, 7777) // heavy key: 1% of stream
	}
	hh, exact := HeavyHitters(keys, 0.005)
	found := false
	for _, k := range hh {
		if k == 7777 {
			found = true
		}
	}
	if !found {
		t.Errorf("heavy hitter missed: %v", hh)
	}
	if exact[7777] != 10 {
		t.Errorf("exact count = %d", exact[7777])
	}
}

func TestEstimationErrorZeroWhenExact(t *testing.T) {
	// A huge sketch on a tiny stream is exact → error 0 for CMS.
	keys := []uint64{1, 1, 1, 2, 2, 3}
	s := NewCountMin(4, 4096, 11)
	if err := EstimationError(s, keys, 0.1); err != 0 {
		t.Errorf("exact sketch error = %v, want 0", err)
	}
}

func TestCompareErrorIdenticalStreams(t *testing.T) {
	keys := zipfStream(5000, 13)
	for _, alg := range Algorithms {
		rel, err := CompareError(alg, keys, keys, 0.001, 2, 17)
		if err != nil {
			t.Fatal(err)
		}
		// Identical streams: errors should be close (not exactly 0:
		// the two sketch instances use different seeds).
		if rel > 1.5 {
			t.Errorf("%s: identical streams rel err = %v", alg, rel)
		}
	}
}

func TestCompareErrorDistortedStream(t *testing.T) {
	raw := zipfStream(8000, 19)
	// Uniform stream destroys the skew.
	rng := rand.New(rand.NewPCG(23, 29))
	syn := make([]uint64, len(raw))
	for i := range syn {
		syn[i] = uint64(rng.IntN(5000))
	}
	relSame, err := CompareError("CMS", raw, raw, 0.001, 3, 31)
	if err != nil {
		t.Fatal(err)
	}
	relDiff, err := CompareError("CMS", raw, syn, 0.001, 3, 31)
	if err != nil {
		t.Fatal(err)
	}
	if relDiff <= relSame {
		t.Errorf("distorted stream should have larger relative error: %v vs %v", relDiff, relSame)
	}
}

func TestHashDeterministicProperty(t *testing.T) {
	f := func(seed, x uint64) bool {
		h1 := hashFn{seed: seed}
		h2 := hashFn{seed: seed}
		return h1.hash(x) == h2.hash(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSketchDeterministicSeed(t *testing.T) {
	keys := zipfStream(2000, 37)
	a := NewCountSketch(5, 256, 41)
	b := NewCountSketch(5, 256, 41)
	for _, k := range keys {
		a.Update(k, 1)
		b.Update(k, 1)
	}
	for k := uint64(0); k < 50; k++ {
		if a.Estimate(k) != b.Estimate(k) {
			t.Fatalf("same-seed sketches disagree on key %d", k)
		}
	}
}
