package core

import (
	"math/rand/v2"
	"testing"

	"github.com/netdpsyn/netdpsyn/internal/dataset"
	"github.com/netdpsyn/netdpsyn/internal/marginal"
)

// benchGUMSetup builds a 3-way marginal over a random dataset sized
// like one synthesis window, the shape both planning benchmarks
// share. The target counts come from a differently-seeded dataset so
// every plan has real over/under gaps — the pool scan, shuffle,
// representative pass and move loop all run, not just the tally.
func benchGUMSetup(rows int) (*dataset.Encoded, *GUM) {
	domains := []int{64, 32, 16}
	names := []string{"a", "b", "c"}
	mk := func(s1, s2 uint64) *dataset.Encoded {
		ds := dataset.NewEncoded(names, domains, rows)
		rng := rand.New(rand.NewPCG(s1, s2))
		for a, dom := range domains {
			col := ds.Cols[a]
			for r := range col {
				col[r] = int32(rng.IntN(dom))
			}
		}
		return ds
	}
	ds := mk(3, 5)
	m := marginal.Compute(mk(7, 9), []int{0, 1, 2})
	g := NewGUM([]*marginal.Marginal{m}, rows, DefaultGUMConfig())
	return ds, g
}

// BenchmarkGUMPlanUpdate measures one marginal's reclassifying
// planning pass — the cell-index tally it opens with is the inner
// loop of the synthesis stage that dominates runtime (§3.1), which is
// what the dense scratch arena targets. The target stays stale (only
// GUM.run clears that), so every pass reclassifies.
func BenchmarkGUMPlanUpdate(b *testing.B) {
	const rows = 50_000
	ds, g := benchGUMSetup(rows)
	sc := newGumScratch(rows, g.denseCells)
	var plan gumPlan
	b.SetBytes(int64(ds.NumAttrs()) * rows * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.reseed(taskSeed(uint64(i), "gum-update", i))
		planUpdate(ds, g.targets[0], 0.5, 0.5, sc, &plan)
	}
}

// BenchmarkGUMSteadyState locks in the zero-alloc contract: once the
// scratch arena, the target's gap slices and the plan buffers are
// warm, a planning pass must not allocate. It covers the three kinds
// of plan a run makes: one that reclassifies a stale target, one that
// reuses a clean target's classification and draws a pool (so it
// rebuilds the row cells), and one whose quotas sum to zero. Each
// fails the benchmark if AllocsPerRun sees more than one residual
// allocation per plan (slack for one-off buffer growth when a round's
// pool outgrows every previous round's).
func BenchmarkGUMSteadyState(b *testing.B) {
	const rows = 50_000
	ds, g := benchGUMSetup(rows)
	t := g.targets[0]
	sc := newGumScratch(rows, g.denseCells)
	var plan gumPlan
	i := 0
	for _, leg := range []struct {
		name  string
		stale bool
		alpha float64 // 1e-12 rounds every quota to zero
		moves bool
	}{
		{"reclassify", true, 0.5, true},
		{"cached-pool", false, 0.5, true},
		{"cached-zero-quota", false, 1e-12, false},
	} {
		b.Run(leg.name, func(b *testing.B) {
			run := func() {
				t.stale = leg.stale
				sc.reseed(taskSeed(uint64(i), "gum-update", i))
				planUpdate(ds, t, leg.alpha, 0.5, sc, &plan)
				i++
			}
			// Classify once, then warm every buffer to its
			// steady-state capacity.
			t.stale = true
			planUpdate(ds, t, 0.5, 0.5, sc, &plan)
			for k := 0; k < 20; k++ {
				run()
			}
			if got := len(plan.moves) > 0; got != leg.moves {
				b.Fatalf("plan has %d moves, want moves=%v", len(plan.moves), leg.moves)
			}
			allocs := testing.AllocsPerRun(100, run)
			if allocs > 1 {
				b.Fatalf("steady-state planUpdate allocates %.1f allocs/plan, want ~0", allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				run()
			}
			b.ReportMetric(allocs, "allocs/plan") // after ResetTimer, which drops reported metrics
		})
	}
}
