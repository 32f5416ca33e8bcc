// Package sketch implements the four streaming sketch algorithms of
// the paper's data-sketching experiment (Figure 2): Count-Min Sketch,
// Count Sketch, Universal Monitoring (UnivMon), and NitroSketch, plus
// the heavy-hitter estimation harness that compares raw and
// synthesized traces.
//
// All sketches share the Sketch interface: point updates on uint64
// keys (an IP address, a flow-key hash) and point estimates. Hashing
// uses seeded multiply-shift families, deterministic per seed.
package sketch

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// Sketch is a frequency summary over a stream of keyed increments.
type Sketch interface {
	// Update adds count occurrences of key.
	Update(key uint64, count int64)
	// Estimate returns the estimated frequency of key.
	Estimate(key uint64) float64
	// Name identifies the algorithm ("CMS", "CS", "UM", "NS").
	Name() string
}

// hashFn is a seeded 64→64 bit mixer (xorshift-multiply, the
// splitmix64 finalizer) giving independent hash functions per seed.
type hashFn struct {
	seed uint64
}

func (h hashFn) hash(x uint64) uint64 {
	x += h.seed + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// CountMin is the Count-Min sketch of Cormode & Muthukrishnan: d rows
// of w counters; a point estimate is the minimum over rows, an
// overestimate with one-sided error.
type CountMin struct {
	rows   [][]float64
	hashes []hashFn
	w      int
}

// NewCountMin creates a d×w Count-Min sketch.
func NewCountMin(d, w int, seed uint64) *CountMin {
	c := &CountMin{w: w}
	for i := 0; i < d; i++ {
		c.rows = append(c.rows, make([]float64, w))
		c.hashes = append(c.hashes, hashFn{seed: seed + uint64(i)*0x517cc1b727220a95})
	}
	return c
}

// Update adds count occurrences of key.
func (c *CountMin) Update(key uint64, count int64) {
	for i, h := range c.hashes {
		c.rows[i][h.hash(key)%uint64(c.w)] += float64(count)
	}
}

// Estimate returns the min-over-rows estimate.
func (c *CountMin) Estimate(key uint64) float64 {
	est := math.Inf(1)
	for i, h := range c.hashes {
		if v := c.rows[i][h.hash(key)%uint64(c.w)]; v < est {
			est = v
		}
	}
	return est
}

// Name implements Sketch.
func (c *CountMin) Name() string { return "CMS" }

// CountSketch is the Count sketch of Charikar et al.: like Count-Min
// but with ±1 sign hashes and a median-over-rows estimate, giving
// unbiased two-sided error.
type CountSketch struct {
	rows   [][]float64
	hashes []hashFn
	signs  []hashFn
	w      int
}

// NewCountSketch creates a d×w Count sketch.
func NewCountSketch(d, w int, seed uint64) *CountSketch {
	c := &CountSketch{w: w}
	for i := 0; i < d; i++ {
		c.rows = append(c.rows, make([]float64, w))
		c.hashes = append(c.hashes, hashFn{seed: seed + uint64(i)*0x2545f4914f6cdd1d})
		c.signs = append(c.signs, hashFn{seed: seed ^ 0xdeadbeef + uint64(i)*0x9e3779b97f4a7c15})
	}
	return c
}

func (c *CountSketch) sign(i int, key uint64) float64 {
	if c.signs[i].hash(key)&1 == 0 {
		return -1
	}
	return 1
}

// Update adds count occurrences of key.
func (c *CountSketch) Update(key uint64, count int64) {
	for i, h := range c.hashes {
		c.rows[i][h.hash(key)%uint64(c.w)] += c.sign(i, key) * float64(count)
	}
}

// Estimate returns the median-over-rows estimate.
func (c *CountSketch) Estimate(key uint64) float64 {
	ests := make([]float64, len(c.rows))
	for i, h := range c.hashes {
		ests[i] = c.sign(i, key) * c.rows[i][h.hash(key)%uint64(c.w)]
	}
	sort.Float64s(ests)
	mid := len(ests) / 2
	if len(ests)%2 == 1 {
		return ests[mid]
	}
	return (ests[mid-1] + ests[mid]) / 2
}

// Name implements Sketch.
func (c *CountSketch) Name() string { return "CS" }

// UnivMon is Universal Monitoring (Liu et al., SIGCOMM'16) as Figure 2
// queries it. UnivMon keeps a hierarchy of Count sketches over
// successively subsampled substreams and answers a point query from
// level 0, whose Count sketch sees every key; the deeper levels serve
// only G-sum queries (such as the L2 norm), which Figure 2 does not
// ask, so this type keeps level 0 alone.
type UnivMon struct {
	level0 *CountSketch
}

// NewUnivMon creates a UnivMon whose level-0 Count sketch is d×w.
func NewUnivMon(d, w int, seed uint64) *UnivMon {
	return &UnivMon{level0: NewCountSketch(d, w, seed)}
}

// Update adds count occurrences of key.
func (u *UnivMon) Update(key uint64, count int64) {
	u.level0.Update(key, count)
}

// Estimate returns the level-0 Count-sketch estimate.
func (u *UnivMon) Estimate(key uint64) float64 {
	return u.level0.Estimate(key)
}

// Name implements Sketch.
func (u *UnivMon) Name() string { return "UM" }

// NitroSketch (Liu et al., SIGCOMM'19) accelerates a Count sketch by
// sampling updates: each row is updated independently with
// probability p, adding count/p, preserving unbiasedness while
// touching far fewer counters.
type NitroSketch struct {
	cs  *CountSketch
	p   float64
	rng *rand.Rand
}

// NewNitroSketch creates a NitroSketch over a d×w Count sketch with
// row-update sampling probability p.
func NewNitroSketch(d, w int, p float64, seed uint64) *NitroSketch {
	if p <= 0 || p > 1 {
		p = 1
	}
	return &NitroSketch{
		cs:  NewCountSketch(d, w, seed),
		p:   p,
		rng: rand.New(rand.NewPCG(seed, seed^0x94d049bb133111eb)),
	}
}

// Update samples each row independently and compensates by 1/p.
func (n *NitroSketch) Update(key uint64, count int64) {
	inc := float64(count) / n.p
	for i, h := range n.cs.hashes {
		if n.rng.Float64() < n.p {
			n.cs.rows[i][h.hash(key)%uint64(n.cs.w)] += n.cs.sign(i, key) * inc
		}
	}
}

// Estimate returns the median-over-rows estimate.
func (n *NitroSketch) Estimate(key uint64) float64 { return n.cs.Estimate(key) }

// Name implements Sketch.
func (n *NitroSketch) Name() string { return "NS" }

// Algorithm names in the paper's Figure 2 order.
var Algorithms = []string{"CMS", "CS", "UM", "NS"}

// NewByName constructs a sketch by its Figure 2 short name with the
// evaluation sizes. The widths are small relative to the paper's
// (which target 1M-packet streams) so the sketches stay realistically
// lossy at the emulated stream sizes; what Figure 2 measures is how
// much *additional* estimation error a synthetic trace induces, which
// requires a sketch that is actually under pressure.
func NewByName(name string, seed uint64) (Sketch, error) {
	const d, w = 3, 64
	switch name {
	case "CMS":
		return NewCountMin(d, w, seed), nil
	case "CS":
		return NewCountSketch(d, w, seed), nil
	case "UM":
		return NewUnivMon(d, w/2, seed), nil
	case "NS":
		return NewNitroSketch(d, w, 0.3, seed), nil
	default:
		return nil, fmt.Errorf("sketch: unknown algorithm %q", name)
	}
}
