package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sort"

	"github.com/netdpsyn/netdpsyn/internal/core/kernels"
	"github.com/netdpsyn/netdpsyn/internal/dataset"
	"github.com/netdpsyn/netdpsyn/internal/marginal"
)

// GUMConfig tunes the Gradually Update Method record synthesizer.
type GUMConfig struct {
	// Iterations is the maximum number of update rounds over the
	// marginal set (the paper defaults to 200).
	Iterations int
	// InitAlpha is the initial fraction of the required record moves
	// applied per round; it decays geometrically so the dataset
	// settles (PrivSyn uses 1.0 and 0.84).
	InitAlpha, AlphaDecay float64
	// DuplicateProb is the probability of satisfying a deficit by
	// duplicating an existing matching record (which preserves its
	// other attributes) instead of overwriting the marginal's
	// attributes in place.
	DuplicateProb float64
	// Seed drives all sampling. Each update pass draws from its own
	// (Seed, round, marginal)-derived RNG, so the output is identical
	// for any worker count.
	Seed uint64
	// denseMode overrides the per-marginal dense/sparse counting
	// decision for tests: the two paths are contractually
	// byte-identical, and the equivalence suite forces each in turn.
	denseMode int
}

// denseMode values: 0 decides per marginal at NewGUM (dense iff the
// cell space fits max(4·n, gumDenseCellFloor)); the forced modes are
// test-only.
const (
	gumDenseAuto = iota
	gumDenseForced
	gumSparseForced
)

// DefaultGUMConfig returns the paper's defaults.
func DefaultGUMConfig() GUMConfig {
	return GUMConfig{Iterations: 200, InitAlpha: 1.0, AlphaDecay: 0.84, DuplicateProb: 0.5, Seed: 1}
}

// GUM iteratively updates an encoded dataset until its marginals
// approach the published targets. The initial dataset init is
// modified in place and returned; use InitIndependent for plain GUM
// or InitGUMMI for NetDPSyn's marginal initialization.
type GUM struct {
	cfg        GUMConfig
	targets    []*target
	denseCells int // largest dense marginal's cell space (arena size)
}

type target struct {
	m      *marginal.Marginal
	counts []float64 // scaled so the sum equals the synthetic record count
	// dense selects the arena counting path: live counts, move quotas
	// and representative rows live in arrays indexed by cell instead
	// of maps. Chosen at NewGUM time; both paths produce byte-identical
	// plans.
	dense bool
	// tcells are the cells with target > gumDust, ascending — the
	// only zero-count cells that can contribute deficits. Fixed per
	// run, so each plan merges it with the nonzero set instead of
	// rescanning the whole (possibly huge) target vector.
	tcells []int

	// The live tally of the dataset being synthesized: every row's
	// cell in this marginal and the rows per cell. build fills it once
	// per run; after that foldIn re-derives only the rows the previous
	// round moved. A dense target holds int32 cells and counts (NewGUM
	// makes a target dense only when its cell space and the row count
	// fit); a sparse one holds int cells and a map whose zero entries
	// are deleted. nonzero is the number of cells holding a row.
	cells   []int32     // dense: each row's cell
	cur     []int32     // dense: rows per cell
	scells  []int       // sparse: each row's cell
	scur    map[int]int // sparse: rows per nonzero cell
	nonzero int

	// The last classification of the tally against counts: over cells
	// in ascending cell order, under cells gap-sorted, the L1 error,
	// and findable, how many under cells hold at least one row (only
	// those can find a representative). It is a pure function of the
	// live counts, so a plan reclassifies only while stale: build, and
	// a foldIn that moves a row to another cell, set it; classifying
	// clears it.
	over, under []cellGap
	l1          float64
	findable    int
	stale       bool
}

// NewGUM prepares a synthesizer for the given published marginals and
// synthetic record count n.
func NewGUM(ms []*marginal.Marginal, n int, cfg GUMConfig) *GUM {
	g := &GUM{cfg: cfg}
	denseLimit := 4 * n
	if denseLimit < gumDenseCellFloor {
		denseLimit = gumDenseCellFloor
	}
	for _, m := range ms {
		t := &target{m: m, counts: append([]float64(nil), m.Counts...)}
		var sum float64
		for _, c := range t.counts {
			if c > 0 {
				sum += c
			} else {
				c = 0
			}
		}
		if sum > 0 {
			scale := float64(n) / sum
			for i, c := range t.counts {
				if c < 0 {
					c = 0
				}
				t.counts[i] = c * scale
			}
		}
		switch cfg.denseMode {
		case gumDenseForced:
			t.dense = true
		case gumSparseForced:
			t.dense = false
		default:
			t.dense = len(t.counts) <= denseLimit
		}
		// The dense path stores cells, per-cell row counts and row
		// indices as int32.
		t.dense = t.dense && len(t.counts) <= math.MaxInt32 && n <= math.MaxInt32
		if t.dense && len(t.counts) > g.denseCells {
			g.denseCells = len(t.counts)
		}
		for c, tc := range t.counts {
			if tc > gumDust {
				t.tcells = append(t.tcells, c)
			}
		}
		g.targets = append(g.targets, t)
	}
	return g
}

// run applies the update rounds to ds in place on the caller's worker
// pool and returns the per-round average L1 error (‖S−T‖₁ / n averaged
// over marginals), which decreases as the synthesis converges. The
// targets carry state between rounds, so one GUM runs one dataset at a
// time. The pipeline threads its engine through, so stage timings
// capture GUM's busy time.
//
// Each round plans every marginal's update pass concurrently, then
// applies the plans sequentially in marginal order. Every plan of a
// round finishes before any plan is applied, so plans read the dataset
// as it stood at the round's start. Planning — the hot path that
// dominates end-to-end runtime — is a pure function of (that dataset,
// target, alpha, per-pass RNG), so the fan-out cannot perturb the
// output: a pass's RNG derives from (Seed, round, marginal index),
// never from worker identity or completion order.
func (g *GUM) run(ds *dataset.Encoded, eng *engine) []float64 {
	if ds.NumRows() == 0 || len(g.targets) == 0 {
		return nil
	}
	errs := make([]float64, 0, g.cfg.Iterations)
	rs := g.newRounds(ds, eng)
	alpha := g.cfg.InitAlpha
	for it := 0; it < g.cfg.Iterations; it++ {
		rs.plan(it, alpha)
		errs = append(errs, rs.apply())
		alpha *= g.cfg.AlphaDecay
	}
	return errs
}

// gumRounds is one run's round loop state. Its arenas live for the
// whole run: one plan per target (its moves/row buffers live until the
// sequential apply, then are reused next round), one scratch per
// worker slot (reused across every (round, marginal) task that slot
// runs — see gumScratch), and the bitmap of rows the last apply
// rewrote.
type gumRounds struct {
	g       *GUM
	ds      *dataset.Encoded
	eng     *engine
	plans   []gumPlan
	scratch []*gumScratch
	codes   []int32 // applyPlan's cell-decode buffer

	// moved has bit r%64 of word r/64 set for every row the last
	// apply rewrote; anyMoved says whether any bit is set. built turns
	// true once the first round has built every target's tally.
	moved    []uint64
	anyMoved bool
	built    bool

	// The round being planned, read by task (planTask, bound once so
	// a round allocates nothing).
	it    int
	alpha float64
	task  func(w, ti int)
}

func (g *GUM) newRounds(ds *dataset.Encoded, eng *engine) *gumRounds {
	maxAttrs := 0
	for _, t := range g.targets {
		maxAttrs = max(maxAttrs, len(t.m.Attrs))
	}
	rs := &gumRounds{
		g:       g,
		ds:      ds,
		eng:     eng,
		plans:   make([]gumPlan, len(g.targets)),
		scratch: make([]*gumScratch, eng.workers),
		codes:   make([]int32, maxAttrs),
		moved:   make([]uint64, (ds.NumRows()+63)/64),
	}
	rs.task = rs.planTask
	return rs
}

// plan plans round it at update rate alpha, one task per target.
func (rs *gumRounds) plan(it int, alpha float64) {
	rs.it, rs.alpha = it, alpha
	rs.eng.parallelForWorker(len(rs.g.targets), rs.task)
	rs.built = true
}

// planTask brings target ti's tally up to date — building it in the
// first round, folding in the rows the previous round moved after
// that — then plans its update. Both run inside the parallel section,
// so the only serial work per round is the apply.
func (rs *gumRounds) planTask(w, ti int) {
	t := rs.g.targets[ti]
	if !rs.built {
		t.build(rs.ds)
	} else if rs.anyMoved {
		t.foldIn(rs.ds, rs.moved)
	}
	sc := rs.scratch[w]
	if sc == nil {
		sc = newGumScratch(rs.g.denseCells)
		rs.scratch[w] = sc
	}
	sc.reseed(taskSeed(rs.g.cfg.Seed, "gum-update", rs.it*len(rs.g.targets)+ti))
	planUpdate(rs.ds, t, rs.alpha, rs.g.cfg.DuplicateProb, sc, &rs.plans[ti])
}

// apply executes the round's plans in marginal order, marking every
// row they rewrite in moved, and returns the round's average L1 error.
// Every target has folded in the previous round's marks by now.
func (rs *gumRounds) apply() float64 {
	if rs.anyMoved {
		clear(rs.moved)
		rs.anyMoved = false
	}
	var roundErr float64
	for ti, t := range rs.g.targets {
		p := &rs.plans[ti]
		roundErr += p.l1
		applyPlan(rs.ds, t.m, p, rs.codes, rs.moved)
		rs.anyMoved = rs.anyMoved || len(p.moves) > 0
	}
	return roundErr / float64(len(rs.g.targets)) / float64(rs.ds.NumRows())
}

// build tallies every row of ds: its cell and the rows per cell. It
// runs once per run and reuses the buffers of an earlier run.
func (t *target) build(ds *dataset.Encoded) {
	n := ds.NumRows()
	if !t.dense {
		t.scells = slices.Grow(t.scells[:0], n)[:n]
		t.m.CellsInto(ds, t.scells)
		if t.scur == nil {
			t.scur = make(map[int]int)
		}
		clear(t.scur)
		for _, c := range t.scells {
			t.scur[c]++
		}
		t.nonzero = len(t.scur)
		t.stale = true
		return
	}
	// Column by column: every partial sum is at most the final cell,
	// so int32 cannot overflow.
	cells := slices.Grow(t.cells[:0], n)[:n]
	clear(cells)
	for i, a := range t.m.Attrs {
		s := int32(t.m.Strides()[i])
		for r, v := range ds.Cols[a][:n] {
			cells[r] += v * s
		}
	}
	if t.cur == nil {
		t.cur = make([]int32, len(t.counts))
	}
	clear(t.cur)
	nonzero := 0
	for _, c := range cells {
		if t.cur[c] == 0 {
			nonzero++
		}
		t.cur[c]++
	}
	t.cells, t.nonzero, t.stale = cells, nonzero, true
}

// foldIn re-derives the cell of every row marked in moved, in
// ascending row order, and moves the row's count if its cell changed;
// any such change makes the target stale. moved must mark every row
// rewritten since the tally was last current: a duplicate move
// rewrites every column and a replace move its own marginal's
// attributes, which other marginals may share.
func (t *target) foldIn(ds *dataset.Encoded, moved []uint64) {
	attrs, strides := t.m.Attrs, t.m.Strides()
	for wi, word := range moved {
		for ; word != 0; word &= word - 1 {
			r := wi<<6 | bits.TrailingZeros64(word)
			c := 0
			for i, a := range attrs {
				c += int(ds.Cols[a][r]) * strides[i]
			}
			if t.dense {
				old := t.cells[r]
				if int(old) == c {
					continue
				}
				t.cells[r] = int32(c)
				if t.cur[old]--; t.cur[old] == 0 {
					t.nonzero--
				}
				if t.cur[c]++; t.cur[c] == 1 {
					t.nonzero++
				}
			} else {
				old := t.scells[r]
				if old == c {
					continue
				}
				t.scells[r] = c
				if k := t.scur[old] - 1; k > 0 {
					t.scur[old] = k
				} else {
					delete(t.scur, old)
					t.nonzero--
				}
				if t.scur[c]++; t.scur[c] == 1 {
					t.nonzero++
				}
			}
			t.stale = true
		}
	}
}

// gumMove is one planned record rewrite: duplicate a full source row
// over r (rowOff ≥ 0, an offset into the plan's rowBuf, preserving
// the source's cross-marginal correlations), or overwrite r's
// marginal attributes with the codes of cell (rowOff < 0). The
// duplicate captures the source record's round-start codes at planning
// time, so applying a plan cannot be invalidated by an earlier
// marginal's moves in the same round.
type gumMove struct {
	r      int
	cell   int
	rowOff int
}

// gumPlan is one marginal's update pass: the L1 error measured at the
// round's start and the record moves to apply. The move and row
// buffers are owned by the plan and recycled across rounds (a plan
// must stay readable until the round's sequential apply, so the
// buffers cannot live in the per-worker scratch).
type gumPlan struct {
	l1     float64
	moves  []gumMove
	rowBuf []int32 // duplicate moves' captured rows, nAttrs each
}

// reset clears the plan for reuse, keeping the buffers.
func (p *gumPlan) reset() {
	p.l1 = 0
	p.moves = p.moves[:0]
	p.rowBuf = p.rowBuf[:0]
}

// planUpdate computes one marginal's update pass into plan: the
// planned moves plus the L1 error before the update. It reads ds, the
// target's tally and the (freshly reseeded) scratch RNG, and writes
// only the target's classification, the scratch and the plan; every
// plan of a round finishes before any is applied, so concurrent plans
// are safe and reproducible. All working memory comes from the scratch
// arena, the target's gap slices and the plan's own buffers, so the
// steady state allocates ~nothing. The dense and sparse counting paths
// are byte-identical by contract: every ordered traversal — and in
// particular every RNG draw — happens in ascending cell order (or the
// gap-sorted under order), never in map order.
//
// A plan does only the work whose inputs changed. A target that is
// not stale reuses its classification (phase 1), and a plan whose
// quotas sum to zero ends after drawing them: its pool, shuffle,
// representatives and moves would all be empty, and the RNG is
// reseeded for the next plan, so the draws it skips are never seen.
func planUpdate(ds *dataset.Encoded, t *target, alpha, dupProb float64, sc *gumScratch, plan *gumPlan) {
	plan.reset()
	if t.dense {
		planUpdateDense(ds, t, alpha, dupProb, sc, plan)
	} else {
		planUpdateSparse(ds, t, alpha, dupProb, sc, plan)
	}
}

// sortUnderByGap orders deficits largest-gap first (ties by cell
// index) — the order they are served in and the order their RNG
// draws happen in.
func sortUnderByGap(under []cellGap) {
	slices.SortFunc(under, func(a, b cellGap) int {
		if a.Gap != b.Gap {
			if a.Gap > b.Gap {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.Cell, b.Cell)
	})
}

// setClassification stores a fresh classification on the target,
// gap-sorting under whenever a plan could move records between the
// two sides, and clears stale.
func (t *target) setClassification(over, under []cellGap, l1 float64, findable int) {
	if len(over) > 0 && len(under) > 0 {
		sortUnderByGap(under)
	}
	t.over, t.under, t.l1, t.findable = over, under, l1, findable
	t.stale = false
}

// shufflePool is Fisher–Yates with the same draw sequence as
// rng.Shuffle, minus its closure allocation.
func shufflePool(rng *rand.Rand, pool []int) {
	for i := len(pool) - 1; i > 0; i-- {
		j := int(rng.Uint64N(uint64(i + 1)))
		pool[i], pool[j] = pool[j], pool[i]
	}
}

// classifyDense is phase 1 of the arena path: the L1 error and the
// over/under split of the live counts. Only cells with a row or target
// > gumDust can contribute; gaps below gumDust cannot be satisfied by
// integer record moves and would only soak up the move budget. Two
// byte-identical routes: when the cell space is within gumSweepFactor
// of the interesting set, one linear ascending sweep of the counts
// classifies everything without sorting; otherwise the nonzero cells
// are collected from the rows (stamped seenE), sorted and merged.
// Either way the traversal is ascending-cell, which fixes the FP
// accumulation order of l1 and leaves over already cell-sorted — the
// order the quota draws consume the RNG in.
func (t *target) classifyDense(sc *gumScratch, seenE uint32) {
	over, under := t.over[:0], t.under[:0]
	var l1 float64
	if len(t.counts) <= gumSweepFactor*(t.nonzero+len(t.tcells)) {
		over, under, l1 = kernels.GapSweep(t.cur, t.counts, t.tcells, gumDust, over, under)
	} else {
		nonzero := sc.nonzero[:0]
		for r := 0; len(nonzero) < t.nonzero; r++ {
			if c := t.cells[r]; sc.stamp[c] != seenE {
				sc.stamp[c] = seenE
				nonzero = append(nonzero, int(c))
			}
		}
		slices.Sort(nonzero)
		sc.nonzero = nonzero
		over, under, l1 = kernels.GapMerge(nonzero, t.cur, t.counts, t.tcells, gumDust, over, under)
	}
	// Only under cells holding a row can find a representative.
	findable := 0
	for _, u := range under {
		if t.cur[u.Cell] > 0 {
			findable++
		}
	}
	t.setClassification(over, under, l1, findable)
}

// planUpdateDense is planUpdate's arena path. The row and cell loops
// live in the kernels package; this function owns the phase order and
// every RNG draw.
func planUpdateDense(ds *dataset.Encoded, t *target, alpha, dupProb float64, sc *gumScratch, plan *gumPlan) {
	rng := sc.rng
	seenE, quotaE, repE := sc.phases()
	if t.stale {
		t.classifyDense(sc, seenE)
	}
	plan.l1 = t.l1
	over, under := t.over, t.under
	if len(over) == 0 || len(under) == 0 || alpha <= 0 {
		return
	}

	// Phase 2: each over cell's move quota, capped at alpha·excess.
	// Quotas use probabilistic rounding: with ceil(), every cell would
	// keep contributing ≥1 record per round no matter how small alpha
	// gets, and a large marginal set would thrash forever instead of
	// settling. The summed quotas pre-size the pool and move buffers.
	quota, rep, stamp := sc.quota, sc.rep, sc.stamp
	poolCap := 0
	for _, o := range over {
		if q := int(stochasticRound(rng, o.Gap*alpha)); q > 0 {
			quota[o.Cell], stamp[o.Cell] = int32(q), quotaE
			poolCap += q
		}
	}
	if poolCap == 0 {
		return
	}

	// Phase 3: one ascending row pass fills the pool of movable
	// records — the first q rows of each over cell — and finds each
	// findable under cell's first row, the representative a duplicate
	// move copies. It stops once both are complete.
	for _, u := range under {
		stamp[u.Cell], rep[u.Cell] = repE, -1
	}
	pool := sc.pool[:0]
	if cap(pool) < poolCap {
		pool = make([]int, 0, poolCap)
	}
	pool = kernels.PoolRepScan(t.cells, quota, rep, stamp, quotaE, repE, pool, poolCap, t.findable)
	sc.pool = pool
	shufflePool(rng, pool)

	// Phase 4: the moves.
	nAttrs := ds.NumAttrs()
	moves := plan.moves[:0]
	if cap(moves) < poolCap {
		moves = make([]gumMove, 0, poolCap)
	}
	rowBuf := plan.rowBuf
	pi := 0
	for _, u := range under {
		need := int(stochasticRound(rng, u.Gap*alpha))
		for k := 0; k < need && pi < len(pool); k++ {
			r := pool[pi]
			pi++
			q, ok := 0, false
			if v := rep[u.Cell]; v >= 0 { // set to -1 in phase 3
				q, ok = int(v), true
			}
			if ok && q != r && rng.Float64() < dupProb {
				// Duplicate: capture the source row's round-start codes.
				off := len(rowBuf)
				for a := 0; a < nAttrs; a++ {
					rowBuf = append(rowBuf, ds.Cols[a][q])
				}
				moves = append(moves, gumMove{r: r, rowOff: off})
			} else {
				moves = append(moves, gumMove{r: r, cell: u.Cell, rowOff: -1})
				rep[u.Cell] = int32(r)
			}
		}
		if pi >= len(pool) {
			break
		}
	}
	plan.moves, plan.rowBuf = moves, rowBuf
}

// classifySparse is classifyDense for the map fallback: the sorted
// nonzero cells of the live map merged against the target-bearing
// cells.
func (t *target) classifySparse(sc *gumScratch) {
	nonzero := sc.nonzero[:0]
	for c := range t.scur {
		nonzero = append(nonzero, c)
	}
	slices.Sort(nonzero)
	sc.nonzero = nonzero
	over, under := t.over[:0], t.under[:0]
	var l1 float64
	findable := 0
	ki, kn := 0, len(t.tcells)
	for _, c := range nonzero {
		for ki < kn && t.tcells[ki] < c {
			tc := t.tcells[ki]
			gap := t.counts[tc]
			l1 += gap
			under = append(under, cellGap{Cell: tc, Gap: gap})
			ki++
		}
		if ki < kn && t.tcells[ki] == c {
			ki++
		}
		d := float64(t.scur[c]) - t.counts[c]
		l1 += math.Abs(d)
		if d > gumDust {
			over = append(over, cellGap{Cell: c, Gap: d})
		} else if d < -gumDust {
			under = append(under, cellGap{Cell: c, Gap: -d})
			findable++
		}
	}
	for ; ki < kn; ki++ {
		tc := t.tcells[ki]
		gap := t.counts[tc]
		l1 += gap
		under = append(under, cellGap{Cell: tc, Gap: gap})
	}
	t.setClassification(over, under, l1, findable)
}

// planUpdateSparse is planUpdate's map fallback for marginals whose
// projected cell space is too large to arena. Same phase order, same
// RNG draw sequence, byte-identical plans.
func planUpdateSparse(ds *dataset.Encoded, t *target, alpha, dupProb float64, sc *gumScratch, plan *gumPlan) {
	rng := sc.rng
	sc.sparseMaps()
	if t.stale {
		t.classifySparse(sc)
	}
	plan.l1 = t.l1
	over, under := t.over, t.under
	if len(over) == 0 || len(under) == 0 || alpha <= 0 {
		return
	}

	// Phase 2 (see planUpdateDense; quotas live in a map here).
	poolCap := 0
	clear(sc.squota)
	for _, o := range over {
		if q := int(stochasticRound(rng, o.Gap*alpha)); q > 0 {
			sc.squota[o.Cell] = q
			poolCap += q
		}
	}
	if poolCap == 0 {
		return
	}

	// Phase 3 (see planUpdateDense).
	clear(sc.srep)
	for _, u := range under {
		sc.srep[u.Cell] = -1
	}
	pool := sc.pool[:0]
	if cap(pool) < poolCap {
		pool = make([]int, 0, poolCap)
	}
	for r, want, need := 0, poolCap, t.findable; r < len(t.scells) && want+need > 0; r++ {
		c := t.scells[r]
		if q := sc.squota[c]; q > 0 {
			pool = append(pool, r)
			sc.squota[c] = q - 1
			want--
		} else if v, ok := sc.srep[c]; ok && v < 0 {
			sc.srep[c] = r
			need--
		}
	}
	sc.pool = pool
	shufflePool(rng, pool)

	// Phase 4.
	nAttrs := ds.NumAttrs()
	moves := plan.moves[:0]
	if cap(moves) < poolCap {
		moves = make([]gumMove, 0, poolCap)
	}
	rowBuf := plan.rowBuf
	pi := 0
	for _, u := range under {
		need := int(stochasticRound(rng, u.Gap*alpha))
		for k := 0; k < need && pi < len(pool); k++ {
			r := pool[pi]
			pi++
			q, ok := 0, false
			if v := sc.srep[u.Cell]; v >= 0 {
				q, ok = v, true
			}
			if ok && q != r && rng.Float64() < dupProb {
				// Duplicate: capture the source row's round-start codes.
				off := len(rowBuf)
				for a := 0; a < nAttrs; a++ {
					rowBuf = append(rowBuf, ds.Cols[a][q])
				}
				moves = append(moves, gumMove{r: r, rowOff: off})
			} else {
				moves = append(moves, gumMove{r: r, cell: u.Cell, rowOff: -1})
				sc.srep[u.Cell] = r
			}
		}
		if pi >= len(pool) {
			break
		}
	}
	plan.moves, plan.rowBuf = moves, rowBuf
}

// applyPlan executes one marginal's planned moves against the live
// dataset and marks each rewritten row in moved (bit r%64 of word
// r/64) for the tallies to fold in. Plans are applied in marginal
// order, so the result is independent of how the planning was
// scheduled. codes is a len ≥ len(m.Attrs) decode buffer owned by the
// caller.
func applyPlan(ds *dataset.Encoded, m *marginal.Marginal, p *gumPlan, codes []int32, moved []uint64) {
	nAttrs := ds.NumAttrs()
	for _, mv := range p.moves {
		moved[mv.r>>6] |= 1 << (mv.r & 63)
		if mv.rowOff >= 0 {
			// Duplicate: copy the planned full record, preserving the
			// correlations of attributes outside this marginal.
			row := p.rowBuf[mv.rowOff : mv.rowOff+nAttrs]
			for a, v := range row {
				ds.Cols[a][mv.r] = v
			}
		} else {
			// Replace: overwrite only this marginal's attributes.
			m.CellInto(mv.cell, codes)
			for i, a := range m.Attrs {
				ds.Cols[a][mv.r] = codes[i]
			}
		}
	}
}

// stochasticRound rounds x down, plus one with probability frac(x),
// so quotas are unbiased and vanish as the update rate decays.
func stochasticRound(rng *rand.Rand, x float64) float64 {
	fl := math.Floor(x)
	if rng.Float64() < x-fl {
		fl++
	}
	return fl
}

// InitIndependent builds the plain-GUM starting dataset: every
// attribute sampled independently from its published 1-way marginal.
func InitIndependent(names []string, domains []int, oneWay []*marginal.Marginal, n int, seed uint64) (*dataset.Encoded, error) {
	if len(oneWay) != len(domains) {
		return nil, fmt.Errorf("core: %d one-way marginals for %d attributes", len(oneWay), len(domains))
	}
	rng := rand.New(rand.NewPCG(seed, seed^0xbb67ae8584caa73b))
	ds := dataset.NewEncoded(names, domains, n)
	for a := range domains {
		samp := newCatSampler(oneWay[a].Counts)
		col := ds.Cols[a]
		for r := 0; r < n; r++ {
			col[r] = int32(samp.Sample(rng))
		}
	}
	return ds, nil
}

// InitGUMMI builds NetDPSyn's marginal-initialized starting dataset
// (§3.4): the key attribute (the label) is sampled from its 1-way
// marginal, then every published marginal containing the key — taken
// in decreasing |Pearson correlation| order — assigns its remaining
// attributes conditionally on the key, and any attribute left
// unassigned falls back to its independent 1-way marginal.
func InitGUMMI(names []string, domains []int, oneWay, published []*marginal.Marginal, keyAttr, n int, seed uint64) (*dataset.Encoded, error) {
	if keyAttr < 0 || keyAttr >= len(domains) {
		return nil, fmt.Errorf("core: key attribute %d out of range", keyAttr)
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x3c6ef372fe94f82b))
	ds := dataset.NewEncoded(names, domains, n)

	// Key marginals ordered by |Pearson| (computed on the noisy
	// counts; no extra budget).
	type keyed struct {
		m    *marginal.Marginal
		corr float64
	}
	var key []keyed
	for _, m := range published {
		hasKey := false
		for _, a := range m.Attrs {
			if a == keyAttr {
				hasKey = true
				break
			}
		}
		if !hasKey || len(m.Attrs) < 2 {
			continue
		}
		corr := 0.0
		if len(m.Attrs) == 2 {
			c, err := m.PearsonCorr()
			if err == nil {
				corr = math.Abs(c)
			}
		} else {
			corr = 1 // multi-way key marginals are used first
		}
		key = append(key, keyed{m, corr})
	}
	sort.SliceStable(key, func(a, b int) bool { return key[a].corr > key[b].corr })

	// Sample the key attribute.
	keySamp := newCatSampler(oneWay[keyAttr].Counts)
	keyCol := ds.Cols[keyAttr]
	for r := 0; r < n; r++ {
		keyCol[r] = int32(keySamp.Sample(rng))
	}
	assigned := make([]bool, len(domains))
	assigned[keyAttr] = true

	// Conditional assignment from each key marginal.
	for _, km := range key {
		m := km.m
		newAttrs := make([]int, 0, len(m.Attrs))
		for _, a := range m.Attrs {
			if !assigned[a] {
				newAttrs = append(newAttrs, a)
			}
		}
		if len(newAttrs) == 0 {
			continue
		}
		cond, err := newConditionalSampler(m, keyAttr)
		if err != nil {
			return nil, err
		}
		// Decode each sampled cell into a reused buffer and assign only
		// the not-yet-covered attribute positions (precomputed, so the
		// row loop does no membership scans and allocates nothing).
		codes := make([]int32, len(m.Attrs))
		newPos := make([]int, 0, len(newAttrs))
		for i, a := range m.Attrs {
			if !assigned[a] {
				newPos = append(newPos, i)
			}
		}
		for r := 0; r < n; r++ {
			cell := cond.Sample(rng, keyCol[r])
			m.CellInto(cell, codes)
			for _, i := range newPos {
				ds.Cols[m.Attrs[i]][r] = codes[i]
			}
		}
		for _, a := range newAttrs {
			assigned[a] = true
		}
	}

	// Independent fallback for uncovered attributes.
	for a := range domains {
		if assigned[a] {
			continue
		}
		samp := newCatSampler(oneWay[a].Counts)
		col := ds.Cols[a]
		for r := 0; r < n; r++ {
			col[r] = int32(samp.Sample(rng))
		}
	}
	return ds, nil
}

// catSampler draws from a non-negative weight vector: the first index
// whose CDF value reaches a uniform u (the last index if none does).
// A guide table narrows each draw's binary search to the indices
// whose CDF values fall in u's 1/len-wide bucket, a few on average.
type catSampler struct {
	cdf []float64
	// guide[k] is the first index whose cdf is ≥ k/len (len−1 if
	// none); guide[len] is len−1.
	guide []int32
}

func newCatSampler(weights []float64) *catSampler {
	cdf := make([]float64, len(weights))
	var total float64
	for i, w := range weights {
		if w > 0 {
			total += w
		}
		cdf[i] = total
	}
	if total <= 0 {
		for i := range cdf {
			cdf[i] = float64(i+1) / float64(len(cdf))
		}
	} else {
		for i := range cdf {
			cdf[i] /= total
		}
	}
	return &catSampler{cdf: cdf, guide: guideTable(cdf)}
}

// guideTable returns catSampler.guide for a non-decreasing cdf.
func guideTable(cdf []float64) []int32 {
	n := len(cdf)
	guide := make([]int32, n+1)
	i := 0
	for k := 0; k < n; k++ {
		for i < n-1 && cdf[i] < float64(k)/float64(n) {
			i++
		}
		guide[k] = int32(i)
	}
	guide[n] = int32(max(n-1, 0))
	return guide
}

func (s *catSampler) Sample(rng *rand.Rand) int {
	return s.search(rng.Float64())
}

// search returns the first index whose cdf is ≥ u, or the last index.
// Every index before guide[k] has cdf < k/len ≤ u, and guide[k+1] has
// cdf ≥ (k+1)/len > u (or is the last index), so the answer lies in
// [guide[k], guide[k+1]].
func (s *catSampler) search(u float64) int {
	n := len(s.cdf)
	if n == 0 {
		return 0
	}
	k := min(int(u*float64(n)), n-1)
	// The product can round up past u's bucket; step back so that
	// k/len ≤ u holds as computed.
	for k > 0 && float64(k)/float64(n) > u {
		k--
	}
	lo, hi := int(s.guide[k]), int(s.guide[k+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// conditionalSampler draws a full marginal cell conditioned on the
// key attribute's value.
type conditionalSampler struct {
	perKey []*catSampler // indexed by key code; samples a cell offset
	cells  [][]int       // cell indices behind each sampler
}

func newConditionalSampler(m *marginal.Marginal, keyAttr int) (*conditionalSampler, error) {
	keyPos := -1
	for i, a := range m.Attrs {
		if a == keyAttr {
			keyPos = i
			break
		}
	}
	if keyPos < 0 {
		return nil, fmt.Errorf("core: marginal %v lacks key attribute %d", m.Attrs, keyAttr)
	}
	dom := m.Domains[keyPos]
	cells := make([][]int, dom)
	weights := make([][]float64, dom)
	for idx, c := range m.Counts {
		codes := m.Cell(idx)
		k := int(codes[keyPos])
		cells[k] = append(cells[k], idx)
		if c < 0 {
			c = 0
		}
		weights[k] = append(weights[k], c)
	}
	cs := &conditionalSampler{perKey: make([]*catSampler, dom), cells: cells}
	for k := 0; k < dom; k++ {
		cs.perKey[k] = newCatSampler(weights[k])
	}
	return cs, nil
}

// Sample returns a flattened cell index of the marginal whose key
// code equals k.
func (c *conditionalSampler) Sample(rng *rand.Rand, k int32) int {
	ki := int(k)
	if ki < 0 || ki >= len(c.perKey) || len(c.cells[ki]) == 0 {
		ki = 0
	}
	return c.cells[ki][c.perKey[ki].Sample(rng)]
}
