package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"github.com/netdpsyn/netdpsyn/internal/dataset"
	"github.com/netdpsyn/netdpsyn/internal/marginal"
)

// gumEquivSetup builds a mixed marginal set (1-, 2- and 3-way) whose
// targets come from a differently-seeded dataset than the one being
// synthesized, so every planning pass has real over/under gaps and
// the pool, shuffle, representative and duplicate phases all run.
func gumEquivSetup(rows int) (*dataset.Encoded, []*marginal.Marginal) {
	return gumEquivMarginals(rows, []int{0}, []int{1, 2}, []int{0, 2, 3})
}

// gumEquivMarginals is gumEquivSetup over a chosen marginal set.
func gumEquivMarginals(rows int, attrs ...[]int) (*dataset.Encoded, []*marginal.Marginal) {
	domains := []int{16, 8, 12, 6}
	names := []string{"a", "b", "c", "d"}
	mk := func(seed1, seed2 uint64) *dataset.Encoded {
		ds := dataset.NewEncoded(names, domains, rows)
		rng := rand.New(rand.NewPCG(seed1, seed2))
		for a, dom := range domains {
			col := ds.Cols[a]
			for r := range col {
				col[r] = int32(rng.IntN(dom))
			}
		}
		return ds
	}
	ds := mk(3, 5)
	tgt := mk(7, 9)
	ms := make([]*marginal.Marginal, len(attrs))
	for i, a := range attrs {
		ms[i] = marginal.Compute(tgt, a)
	}
	return ds, ms
}

// cloneEncoded deep-copies an encoded dataset.
func cloneEncoded(ds *dataset.Encoded) *dataset.Encoded {
	out := dataset.NewEncoded(ds.Names, ds.Domains, ds.NumRows())
	for a := range ds.Cols {
		copy(out.Cols[a], ds.Cols[a])
	}
	return out
}

// sameEncoded asserts two synthesized datasets are byte-identical.
func sameEncoded(t *testing.T, tag string, got, want *dataset.Encoded) {
	t.Helper()
	for a := range want.Cols {
		for r := range want.Cols[a] {
			if got.Cols[a][r] != want.Cols[a][r] {
				t.Fatalf("%s: output differs at col %d row %d: got %d, want %d",
					tag, a, r, got.Cols[a][r], want.Cols[a][r])
			}
		}
	}
}

// TestGUMDenseSparseEquivalence is GUM's hard contract: every
// counting/classification configuration — the dense arena, the sparse
// map fallback, the linear gap sweep, and the sort-merge route — must
// synthesize byte-identical output at a fixed seed: same plans, same
// moves, same RNG consumption, same per-round errors.
func TestGUMDenseSparseEquivalence(t *testing.T) {
	const rows = 2000
	ds, ms := gumEquivSetup(rows)
	cfg := GUMConfig{Iterations: 25, InitAlpha: 1, AlphaDecay: 0.84, DuplicateProb: 0.5, Seed: 42}

	run := func(mode int) (*dataset.Encoded, []float64) {
		c := cfg
		c.denseMode = mode
		d := cloneEncoded(ds)
		errs := NewGUM(ms, rows, c).run(d, newEngine(1))
		return d, errs
	}
	dDense, errsDense := run(gumDenseForced)
	dSparse, errsSparse := run(gumSparseForced)

	if len(errsDense) != len(errsSparse) {
		t.Fatalf("round counts differ: %d vs %d", len(errsDense), len(errsSparse))
	}
	for i := range errsDense {
		if errsDense[i] != errsSparse[i] {
			t.Fatalf("round %d error differs: dense %v vs sparse %v", i, errsDense[i], errsSparse[i])
		}
	}
	sameEncoded(t, "sparse vs dense", dSparse, dDense)

	// Auto mode must agree too (these marginals are all dense-eligible).
	dAuto, _ := run(gumDenseAuto)
	sameEncoded(t, "auto vs dense", dAuto, dDense)

	// Force the sort-merge route (sweep disabled) and the linear sweep
	// (always on): byte-identical by the ascending-cell contract.
	defer func(f int) { gumSweepFactor = f }(gumSweepFactor)
	gumSweepFactor = 0
	dSort, _ := run(gumDenseForced)
	sameEncoded(t, "sort-merge vs dense", dSort, dDense)
	gumSweepFactor = 1 << 30
	dSweep, _ := run(gumDenseForced)
	sameEncoded(t, "forced-sweep vs dense", dSweep, dDense)
	gumSweepFactor = 8

	// The quiet-round regime: at the default 200 rounds alpha decays
	// the move quotas to zero, so most late rounds move no record and
	// a plan's classification is reused. Here {0} shares no column
	// with the other two marginals, so with DuplicateProb 0 (every
	// move a replace, rewriting only its own marginal's columns) some
	// rounds reclassify one marginal and reuse another's. Every route
	// and worker count must agree on the fingerprint of output and
	// per-round errors. On linux/amd64, the one target where
	// TestCrossProcessDeterminism asserts too, it must also equal the
	// value pinned before plans reused classifications.
	ds, ms = gumEquivMarginals(rows, []int{0}, []int{1, 2}, []int{1, 2, 3})
	quiet := []struct {
		dupProb float64
		want    uint64
	}{
		{0.5, 0x0aff362eac0568e2},
		{0, 0xe67f445816dfddb5},
	}
	for _, q := range quiet {
		var first uint64
		for _, rt := range gumRoutes {
			for _, workers := range []int{1, 3} {
				gumSweepFactor = rt.factor
				c := DefaultGUMConfig()
				c.DuplicateProb, c.Seed, c.denseMode = q.dupProb, 42, rt.mode
				d := cloneEncoded(ds)
				errs := NewGUM(ms, rows, c).run(d, newEngine(workers))
				got := gumFingerprint(d, errs)
				if first == 0 {
					first = got
				}
				if got != first {
					t.Errorf("quiet dup=%v %s workers=%d: fingerprint %#x, dense workers=1 gave %#x",
						q.dupProb, rt.name, workers, got, first)
				}
			}
		}
		if first != q.want && runtime.GOOS == "linux" && runtime.GOARCH == "amd64" {
			t.Errorf("quiet dup=%v: fingerprint %#x, pinned %#x", q.dupProb, first, q.want)
		}
	}
}

// gumFingerprint hashes a synthesized dataset and its per-round
// errors: FNV-1a over every code, column-major, then every error's
// bits.
func gumFingerprint(ds *dataset.Encoded, errs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, col := range ds.Cols {
		for _, v := range col {
			binary.LittleEndian.PutUint32(b[:4], uint32(v))
			h.Write(b[:4])
		}
	}
	for _, e := range errs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(e))
		h.Write(b[:])
	}
	return h.Sum64()
}

// samePlan compares two plans field by field.
func samePlan(t *testing.T, tag string, got, want *gumPlan) {
	t.Helper()
	if got.l1 != want.l1 {
		t.Fatalf("%s: l1 = %v, want %v", tag, got.l1, want.l1)
	}
	if len(got.moves) != len(want.moves) {
		t.Fatalf("%s: %d moves, want %d", tag, len(got.moves), len(want.moves))
	}
	for i := range got.moves {
		if got.moves[i] != want.moves[i] {
			t.Fatalf("%s: move %d = %+v, want %+v", tag, i, got.moves[i], want.moves[i])
		}
	}
	if len(got.rowBuf) != len(want.rowBuf) {
		t.Fatalf("%s: rowBuf len %d, want %d", tag, len(got.rowBuf), len(want.rowBuf))
	}
	for i := range got.rowBuf {
		if got.rowBuf[i] != want.rowBuf[i] {
			t.Fatalf("%s: rowBuf[%d] = %d, want %d", tag, i, got.rowBuf[i], want.rowBuf[i])
		}
	}
}

// TestGumScratchEpochReuse drives one scratch arena through many
// plans with shifting quota and representative sets — cycling
// marginals and mutating the dataset between rounds, the way GUM
// itself reuses a worker's scratch — and checks every plan against a
// freshly allocated scratch, on the sweep and the sort-merge route. A
// stale quota, representative or seen-cell stamp surviving an epoch
// bump would surface as a plan mismatch.
func TestGumScratchEpochReuse(t *testing.T) {
	const rows = 600
	defer func(f int) { gumSweepFactor = f }(gumSweepFactor)
	for _, factor := range []int{8, 0} {
		gumSweepFactor = factor
		ds, ms := gumEquivSetup(rows)
		g := NewGUM(ms, rows, GUMConfig{denseMode: gumDenseForced})
		reused := newGumScratch(g.denseCells)
		codes := make([]int32, 4)
		moved := make([]uint64, (rows+63)/64)
		for _, tg := range g.targets {
			tg.build(ds)
		}

		var gotPlan, wantPlan gumPlan
		for round := 0; round < 30; round++ {
			tgt := g.targets[round%len(g.targets)]
			seed := taskSeed(99, "gum-update", round)

			tgt.stale = true
			reused.reseed(seed)
			planUpdate(ds, tgt, 0.7, 0.5, reused, &gotPlan)

			tgt.stale = true
			fresh := newGumScratch(g.denseCells)
			fresh.reseed(seed)
			planUpdate(ds, tgt, 0.7, 0.5, fresh, &wantPlan)

			samePlan(t, fmt.Sprintf("reuse factor=%d", factor), &gotPlan, &wantPlan)
			// Mutate the dataset so the next round's cells differ, and
			// fold the moved rows into every tally, as run does.
			clear(moved)
			applyPlan(ds, tgt.m, &gotPlan, codes, moved)
			for _, tg := range g.targets {
				tg.foldIn(ds, moved)
			}
		}
	}
}

// TestGumScratchEpochWrap forces the epoch counter to the uint32
// wraparound boundary and checks plans stay correct across the wrap:
// the one-time stamp zeroing must leave no cell reading as live.
func TestGumScratchEpochWrap(t *testing.T) {
	const rows = 600
	ds, ms := gumEquivSetup(rows)
	g := NewGUM(ms, rows, GUMConfig{denseMode: gumDenseForced})
	for _, tg := range g.targets {
		tg.build(ds)
	}
	sc := newGumScratch(g.denseCells)
	// Simulate ~4 billion prior plans: cells last touched by the very
	// first epochs (1..3) still hold those stamps, and the wrap is
	// about to reissue exactly those epoch values. Without the
	// one-time clear, the stale stamps would read as live and the
	// poisoned quotas/reps below would leak into plans.
	sc.epoch = math.MaxUint32 - 4
	for i := range sc.stamp {
		sc.stamp[i] = uint32(1 + i%3)
		sc.quota[i] = 5
		sc.rep[i] = 7
	}

	var gotPlan, wantPlan gumPlan
	for round := 0; round < 6; round++ {
		tgt := g.targets[round%len(g.targets)]
		seed := taskSeed(7, "gum-update", round)

		sc.reseed(seed)
		planUpdate(ds, tgt, 0.7, 0.5, sc, &gotPlan)

		fresh := newGumScratch(g.denseCells)
		fresh.reseed(seed)
		planUpdate(ds, tgt, 0.7, 0.5, fresh, &wantPlan)

		samePlan(t, "wrap", &gotPlan, &wantPlan)
	}
	if sc.epoch > 18 {
		t.Fatalf("epoch did not wrap: %d", sc.epoch)
	}
}

// gumRoutes are the counting/classification routes GUM must agree
// across: a dense or sparse tally, classified by the sweep or the
// sort-merge route (gumSweepFactor 8 picks per plan, 0 forces the
// merge, 1<<30 forces the sweep).
var gumRoutes = []struct {
	name   string
	mode   int
	factor int
}{
	{"dense", gumDenseForced, 8},
	{"sparse", gumSparseForced, 8},
	{"sort-merge", gumDenseForced, 0},
	{"forced-sweep", gumDenseForced, 1 << 30},
}

// TestGUMLiveTallyMatchesRecount checks every target's live tally
// against a fresh recount of the dataset after every round, on every
// route, with and without duplicate moves, at 1 and 3 workers. The
// check runs where the next round's plans read the tallies: after
// plan has folded in the rows the previous apply moved. {1,2} and
// {1,2,3} share columns, so a replace move by either changes the
// other's cells; {0} shares none, so only duplicate moves reach it.
func TestGUMLiveTallyMatchesRecount(t *testing.T) {
	const rows, rounds = 1200, 30
	ds, ms := gumEquivMarginals(rows, []int{0}, []int{1, 2}, []int{1, 2, 3})
	defer func(f int) { gumSweepFactor = f }(gumSweepFactor)
	for _, rt := range gumRoutes {
		for _, dup := range []float64{0, 0.5} {
			for _, workers := range []int{1, 3} {
				gumSweepFactor = rt.factor
				c := DefaultGUMConfig()
				c.DuplicateProb, c.Seed, c.denseMode = dup, 5, rt.mode
				d := cloneEncoded(ds)
				g := NewGUM(ms, rows, c)
				rs := g.newRounds(d, newEngine(workers))
				alpha := c.InitAlpha
				for it := 0; it <= rounds; it++ {
					rs.plan(it, alpha)
					checkTallies(t, fmt.Sprintf("%s dup=%v workers=%d round %d", rt.name, dup, workers, it), d, g)
					rs.apply()
					alpha *= c.AlphaDecay
				}
			}
		}
	}
}

// checkTallies recounts every target's marginal over ds and requires
// the live tally to match it exactly: each row's cell, each cell's
// count (with no zero entries left in a sparse map), the nonzero-cell
// count, and the L1 error of the kept classification, summed in
// ascending cell order as the classification sums it.
func checkTallies(t *testing.T, tag string, ds *dataset.Encoded, g *GUM) {
	t.Helper()
	cellOf := make([]int, ds.NumRows())
	for ti, tg := range g.targets {
		tg.m.CellsInto(ds, cellOf)
		want := make([]int, len(tg.counts))
		nonzero := 0
		for r, c := range cellOf {
			got := 0
			if tg.dense {
				got = int(tg.cells[r])
			} else {
				got = tg.scells[r]
			}
			if got != c {
				t.Fatalf("%s: target %d row %d: live cell %d, recount %d", tag, ti, r, got, c)
			}
			if want[c] == 0 {
				nonzero++
			}
			want[c]++
		}
		var l1 float64
		for c, w := range want {
			got := 0
			if tg.dense {
				got = int(tg.cur[c])
			} else {
				got = tg.scur[c]
			}
			if got != w {
				t.Fatalf("%s: target %d cell %d: live count %d, recount %d", tag, ti, c, got, w)
			}
			if w > 0 {
				l1 += math.Abs(float64(w) - tg.counts[c])
			} else if tg.counts[c] > gumDust {
				l1 += tg.counts[c]
			}
		}
		if tg.nonzero != nonzero {
			t.Fatalf("%s: target %d: %d nonzero cells, recount %d", tag, ti, tg.nonzero, nonzero)
		}
		if !tg.dense && len(tg.scur) != nonzero {
			t.Fatalf("%s: target %d: sparse map holds %d cells, %d nonzero", tag, ti, len(tg.scur), nonzero)
		}
		if tg.l1 != l1 {
			t.Fatalf("%s: target %d: classification l1 %v, recount %v", tag, ti, tg.l1, l1)
		}
	}
}
