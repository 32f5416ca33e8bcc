package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Staged synthesis engine.
//
// Pipeline.Synthesize is organized as a sequence of named stages —
// budget → preprocess → select → publish → postprocess → gum → decode
// — that communicate through a synthState. The stages themselves run
// in order (each consumes the previous stage's outputs), but the hot
// loops *inside* a stage fan out over this worker pool:
//
//   - select:  per-attribute-pair InDif scores (marginal.NewPairScores + fan-out)
//   - publish: per-set marginal Compute + Publish
//   - gum:     per-marginal update planning inside each GUM round
//   - windowed: fully concurrent window pipelines (disjoint records,
//     so parallel composition makes this a privacy-free speedup)
//
// Determinism contract: every parallel task derives its randomness
// from taskSeed(cfg.Seed, stage tag, task index) — never from worker
// identity, shared RNG state, or completion order — and a task may
// write only to its own index slot of a result slice. Under this
// contract Workers=1 and Workers=N produce byte-identical output for
// the same seed; engine_test.go locks that in.
type engine struct {
	workers int
	busy    atomic.Int64  // summed per-task wall time (ns) across parallel loops
	active  *atomic.Int64 // optional shared occupancy counter (EngineMetrics.ActiveWorkers)
}

// EngineMetrics wires optional engine-level observability into a
// pipeline run. Both hooks are designed for the zero-alloc contract
// of the GUM hot path: ActiveWorkers costs one atomic add per task
// edge and StageDone fires once per pipeline stage, never inside a
// parallel loop. A nil EngineMetrics (or nil fields) disables the
// corresponding hook at zero cost.
type EngineMetrics struct {
	// ActiveWorkers, when non-nil, is incremented as a pool worker
	// picks up a task and decremented when the task returns, so its
	// instantaneous value is the number of busy workers across every
	// engine sharing the counter (a serving daemon passes one counter
	// to all jobs).
	ActiveWorkers *atomic.Int64
	// StageDone, when non-nil, is called once per completed pipeline
	// stage with the stage's wall/busy split — the live counterpart
	// of Report.Stages, letting a caller feed histograms without
	// waiting for the run to finish.
	StageDone func(stage string, wall, busy time.Duration)
}

// newEngine sizes a worker pool; workers <= 0 selects
// runtime.GOMAXPROCS(0).
func newEngine(workers int) *engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &engine{workers: workers}
}

// parallelFor runs fn(i) for every i in [0, n) across the pool and
// returns when all tasks finish. Tasks are handed out dynamically, so
// fn must not depend on which worker runs it or in what order tasks
// complete; results belong in per-index slots.
func (e *engine) parallelFor(n int, fn func(i int)) {
	e.parallelForWorker(n, func(_, i int) { fn(i) })
}

// parallelForWorker is parallelFor with the running worker's pool
// slot handed to each task: fn(w, i) sees w < e.workers, and no two
// concurrent tasks share a w. Tasks may therefore keep per-worker
// scratch arenas indexed by w (GUM's planUpdate does) — but the
// determinism contract still holds: a task's OUTPUT must not depend
// on w, so scratch may carry reusable buffers, never values that
// leak into results.
func (e *engine) parallelForWorker(n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	w := e.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if e.active != nil {
				e.active.Add(1)
			}
			start := time.Now()
			fn(0, i)
			e.busy.Add(int64(time.Since(start)))
			if e.active != nil {
				e.active.Add(-1)
			}
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if e.active != nil {
					e.active.Add(1)
				}
				start := time.Now()
				fn(worker, i)
				e.busy.Add(int64(time.Since(start)))
				if e.active != nil {
					e.active.Add(-1)
				}
			}
		}(k)
	}
	wg.Wait()
}

// parallelForErr is parallelFor for fallible tasks. All tasks run to
// completion; the error reported is the lowest-index failure, so the
// outcome matches a sequential left-to-right loop.
func (e *engine) parallelForErr(n int, fn func(i int) error) error {
	errs := make([]error, n)
	e.parallelFor(n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// busyTime returns the accumulated per-task busy time, used by the
// stage runner to split wall clock from worker-CPU effort.
func (e *engine) busyTime() time.Duration {
	return time.Duration(e.busy.Load())
}

// StageTiming splits one pipeline stage's cost into wall-clock time
// and summed worker-busy time; Busy/Wall approximates the effective
// parallelism achieved by the stage. A stage with no parallel section
// reports Busy == Wall (it ran single-threaded).
type StageTiming struct {
	Wall time.Duration
	Busy time.Duration
}

// taskSeed derives the RNG seed of parallel task idx within a named
// stage from the pipeline seed. The stage tag is hashed (FNV-1a,
// inlined so the per-task call allocates nothing — it sits on GUM's
// zero-alloc plan path) so different stages draw from unrelated
// streams even at equal indices, and a splitmix64 finalizer
// decorrelates consecutive indices. This is the only sanctioned seed
// derivation for parallel tasks (see the determinism contract above).
func taskSeed(base uint64, stage string, idx int) uint64 {
	const (
		fnvOffset64 = 14695981039346656037
		fnvPrime64  = 1099511628211
	)
	h := uint64(fnvOffset64)
	for i := 0; i < len(stage); i++ {
		h ^= uint64(stage[i])
		h *= fnvPrime64
	}
	x := base ^ h ^ (uint64(idx)+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
