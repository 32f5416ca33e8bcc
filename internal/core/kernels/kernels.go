// Package kernels holds the innermost row- and cell-sweep loops of
// GUM planning and marginal tallying — the memory-bound hot paths
// under the synthesis stage (~90% of end-to-end runtime, §3.1 of the
// paper).
//
// There is one implementation (opt.go): 8-lane unrolled,
// bounds-check-hinted loops, plus a windowed fast-skip in the gap
// sweep. ref.go keeps the straight-line reference loops as its
// oracle. The two are byte-identical by contract — same counts, same
// touched/over/under/pool contents in the same order, same float
// accumulation order — and the in-package equivalence tests and
// FuzzKernelTally compare every exported kernel against its reference
// in-process.
package kernels

// CellGap is one cell's distance from its target count. GUM's
// over/under gap lists are built from these by the gap sweep.
type CellGap struct {
	Cell int
	Gap  float64
}
