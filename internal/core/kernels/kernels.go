// Package kernels holds the innermost cell-sweep and row-scan loops of
// GUM planning — the memory-bound hot paths under the synthesis stage
// (~90% of end-to-end runtime, §3.1 of the paper): the over/under gap
// sweep over a marginal's live counts (and its sort-merge twin), and
// the one row pass that fills the donor pool and finds
// representatives.
//
// There is one implementation (opt.go): a windowed fast-skip in the
// gap sweep, where a measurement showed it pays, and the reference
// loop itself where none did (the merge and the pool/representative
// scan). ref.go keeps the straight-line reference loops as its
// oracle. The two are byte-identical by contract — same
// over/under/pool contents in the same order, same float accumulation
// order — and the in-package equivalence tests and FuzzKernelSweepScan
// compare every exported kernel against its reference in-process.
package kernels

// CellGap is one cell's distance from its target count. GUM's
// over/under gap lists are built from these by the gap sweep.
type CellGap struct {
	Cell int
	Gap  float64
}
