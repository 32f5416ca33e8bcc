package core

import (
	"math"
	"math/rand/v2"

	"github.com/netdpsyn/netdpsyn/internal/core/kernels"
)

// gumDust is the gap below which a cell's deficit or excess cannot be
// satisfied by integer record moves: noisy targets spread tiny
// fractional counts over huge cell spaces after projection, and gaps
// below half a record would only soak up the move budget.
const gumDust = 0.5

// gumDenseCellFloor is the cell-space size every marginal may arena
// regardless of the record count; above it a marginal is dense only
// while its cells stay within 4·n (see NewGUM), so the arena's extra
// memory is O(records), never O(domain product).
const gumDenseCellFloor = 1 << 20

// gumSweepFactor gates the linear gap sweep: when the marginal's cell
// space is at most this many times its nonzero+target cells, a single
// ascending pass over the live counts (kernels.GapSweep) classifies
// every cell without sorting — the per-plan sort was ~a third of gum
// wall. Beyond that the nonzero cells are collected from the rows,
// sorted and merged instead (kernels.GapMerge); both orders are
// ascending-cell, so the plans are byte-identical. Var, not const:
// the equivalence tests pin it to 0 / huge to force each path.
var gumSweepFactor = 8

// cellGap is one cell's distance from its target count.
type cellGap = kernels.CellGap

// gumScratch is one worker's reusable arena for GUM's planning pass.
// It is allocated once per GUM run and reused across every
// (round, marginal) plan handed to that worker slot, so steady-state
// planUpdate allocates ~nothing: every slice below is reset by
// re-slicing to zero length, and the dense arrays are "cleared" by an
// epoch bump (O(cells stamped), not O(cell space)).
//
// The arena carries only buffers, never values: a plan's output is a
// pure function of (dataset, target, alpha, seed), so which worker's
// scratch served a task cannot perturb the plan (the engine
// determinism contract, see parallelForWorker). The current counts
// live in each target's tally, not here.
type gumScratch struct {
	nonzero []int // a target's live cells, sorted (merge and sparse routes)
	pool    []int // movable rows drawn from over cells

	// Dense arena, sized to the largest dense-eligible marginal's
	// cell space. quota holds each over cell's remaining move quota
	// and rep each under cell's representative row (-1 = none yet).
	// stamp gates every read: a cell is live only while stamp[c]
	// matches the current phase's epoch, so nothing is ever zeroed
	// wholesale between plans.
	quota []int32
	rep   []int32
	stamp []uint32
	epoch uint32

	// Sparse fallback for marginals whose projected cell space is too
	// large to arena, allocated by the first sparse plan. The maps are
	// cleared per use; iteration order never reaches the output
	// (nonzero cells are extracted and sorted before any ordered use).
	squota map[int]int
	srep   map[int]int

	// Per-plan RNG, reseeded for every (round, marginal) task so
	// scratch reuse cannot perturb the stream.
	pcg *rand.PCG
	rng *rand.Rand
}

// newGumScratch sizes an arena for plans over marginals of at most
// denseCells cells (0 if every marginal takes the sparse path).
func newGumScratch(denseCells int) *gumScratch {
	sc := &gumScratch{pcg: rand.NewPCG(0, 0)}
	sc.rng = rand.New(sc.pcg)
	if denseCells > 0 {
		sc.quota = make([]int32, denseCells)
		sc.rep = make([]int32, denseCells)
		sc.stamp = make([]uint32, denseCells)
	}
	return sc
}

// reseed points the scratch RNG at one plan's stream. The derivation
// matches the pre-arena code path (rand.NewPCG per plan) exactly, so
// reuse is invisible in the output.
func (sc *gumScratch) reseed(seed uint64) {
	sc.pcg.Seed(seed, seed^0x6a09e667f3bcc908)
}

// phases advances the arena epoch for one plan and returns the three
// phase stamps: seenE marks cells already collected by the merge
// route's nonzero scan, quotaE marks over cells holding move quotas,
// repE marks under cells awaiting a representative row. The phases run
// strictly in that order within planUpdate and over/under cells are
// disjoint, so later stamps only ever overwrite state the plan has
// finished reading. Epochs start at 1: the pool/representative scan
// clears a finished cell's stamp to 0, which is never an epoch. Near
// uint32 wraparound the stamp array is zeroed once so a stale stamp
// from ~4 billion plans ago cannot read as live.
func (sc *gumScratch) phases() (seenE, quotaE, repE uint32) {
	if sc.epoch > math.MaxUint32-3 {
		clear(sc.stamp)
		sc.epoch = 0
	}
	sc.epoch += 3
	return sc.epoch - 2, sc.epoch - 1, sc.epoch
}

// sparseMaps allocates the sparse fallback's maps on this scratch's
// first sparse plan, so a run whose marginals are all dense never
// builds them.
func (sc *gumScratch) sparseMaps() {
	if sc.squota == nil {
		sc.squota = make(map[int]int)
		sc.srep = make(map[int]int)
	}
}
