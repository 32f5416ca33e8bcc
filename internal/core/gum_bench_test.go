package core

import (
	"math/rand/v2"
	"testing"

	"github.com/netdpsyn/netdpsyn/internal/dataset"
	"github.com/netdpsyn/netdpsyn/internal/marginal"
)

// benchGUMSetup builds marginals over a random dataset sized like one
// synthesis window, the shape the planning benchmarks share. Each
// marginal's target counts come from its own differently-seeded
// dataset, so every plan has real over/under gaps — the quota draws,
// the pool and representative pass, the shuffle and the move loop all
// run — and marginals that share columns disagree, as noisy published
// marginals do, so rounds keep moving records instead of converging.
func benchGUMSetup(rows int, attrs ...[]int) (*dataset.Encoded, *GUM) {
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
	ms := make([]*marginal.Marginal, len(attrs))
	for i, a := range attrs {
		ms[i] = marginal.Compute(mk(7+2*uint64(i), 9+2*uint64(i)), a)
	}
	return ds, NewGUM(ms, rows, DefaultGUMConfig())
}

// BenchmarkGUMPlanUpdate measures one marginal's reclassifying
// planning pass: the gap sweep over the target's live counts, the
// quota draws, the one row pass that fills the pool and finds the
// representatives, the shuffle and the moves. The tally is built once,
// as run builds it; each pass marks the target stale so it
// reclassifies.
func BenchmarkGUMPlanUpdate(b *testing.B) {
	const rows = 50_000
	ds, g := benchGUMSetup(rows, []int{0, 1, 2})
	t := g.targets[0]
	t.build(ds)
	sc := newGumScratch(g.denseCells)
	var plan gumPlan
	b.SetBytes(rows * 4) // the row pass reads every row's int32 cell
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.stale = true
		sc.reseed(taskSeed(uint64(i), "gum-update", i))
		planUpdate(ds, t, 0.5, 0.5, sc, &plan)
	}
}

// BenchmarkGUMSteadyState locks in the zero-alloc contract: once the
// scratch arena, the targets' tallies and gap slices and the plan
// buffers are warm, GUM must not allocate. It covers the three kinds
// of plan a run makes — one that reclassifies a stale target, one that
// reuses a clean target's classification and draws a pool, and one
// whose quotas sum to zero — and a whole round: every plan, the
// applies, and the next round's fold-in of the rows they moved. Each
// leg fails the benchmark if AllocsPerRun reads more than zero.
// AllocsPerRun divides the total by its 100 runs, so one-off buffer
// growth (a round whose pool outgrows every earlier one) reads 0,
// while an allocation on every call reads ≥ 1.
func BenchmarkGUMSteadyState(b *testing.B) {
	const rows = 50_000
	ds, g := benchGUMSetup(rows, []int{0, 1, 2})
	t := g.targets[0]
	t.build(ds)
	sc := newGumScratch(g.denseCells)
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
			benchZeroAlloc(b, "planUpdate", "plan", run)
		})
	}

	// A round over marginals that share columns, so every round's
	// moves reach the other targets' fold-in.
	b.Run("round", func(b *testing.B) {
		ds, g := benchGUMSetup(rows, []int{0, 1, 2}, []int{0, 1}, []int{1, 2})
		rs := g.newRounds(ds, newEngine(1))
		it := 0
		run := func() {
			rs.plan(it, 0.5)
			rs.apply()
			it++
		}
		for k := 0; k < 20; k++ {
			run()
		}
		benchZeroAlloc(b, "GUM round", "round", run)
		if !rs.anyMoved {
			b.Fatal("the last round moved no record, so rounds stopped folding in")
		}
	})
}

// benchZeroAlloc fails b if a warm run allocates on every call, then
// times run and reports the measured allocations per unit.
func benchZeroAlloc(b *testing.B, what, unit string, run func()) {
	b.Helper()
	allocs := testing.AllocsPerRun(100, run)
	if allocs > 0 {
		b.Fatalf("steady-state %s allocates %.1f allocs/%s, want 0", what, allocs, unit)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		run()
	}
	b.ReportMetric(allocs, "allocs/"+unit) // after ResetTimer, which drops reported metrics
}
