// Package parsearch is the deterministic multi-core kernel shared by the
// repository's two parallel solvers: the PTAS shifted-grid DP (core.PTAS)
// and the exact MCS state-space search (core.ExactMCS). The branch-and-bound
// MWFS search (package mwfs) is sequential and uses only the Deadline and
// its BudgetChunk polling cadence.
//
// It provides ForEach, a fixed-size worker pool over an indexed task list.
// Tasks are claimed by atomic counter, so scheduling is work-stealing-free
// and allocation-free; determinism comes from the CALLER merging per-task
// results by task index, never by completion order. Deadline (deadline.go)
// is the cooperative cancellation token every solver polls.
//
// The package is stdlib-only and deliberately knows nothing about systems,
// weights or schedules; the solvers own their determinism arguments (see
// DESIGN.md §11) and use these primitives to implement them.
package parsearch

import (
	"sync"
	"sync/atomic"

	"rfidsched/internal/obs"
)

// Normalize maps a user-facing Workers knob to an effective worker count:
// values below 2 mean "sequential" (0), everything else is taken as-is. The
// solvers treat 0/1 identically — the sequential reference path — because a
// pool of one worker can only reproduce the sequential scan anyway, minus
// the clone setup cost.
func Normalize(workers int) int {
	if workers < 2 {
		return 0
	}
	return workers
}

// ForEach runs fn(worker, task) for every task in [0, tasks), distributing
// tasks over the given number of pool workers. Workers claim tasks through a
// shared atomic counter, so each task runs exactly once, on exactly one
// worker; the worker index lets callers give each goroutine private scratch
// state (a System clone, a kernel evaluator) allocated up front.
//
// With workers < 2 the tasks run inline on the calling goroutine (worker 0)
// in ascending order — the sequential reference the determinism tests pin
// the pool against. Completion ORDER is never meaningful: callers must
// collect results into per-task slots and merge by task index.
func ForEach(workers, tasks int, fn func(worker, task int)) {
	if tasks <= 0 {
		return
	}
	if workers < 2 || tasks == 1 {
		for t := 0; t < tasks; t++ {
			fn(0, t)
		}
		recordTasks(tasks)
		return
	}
	if workers > tasks {
		workers = tasks
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= tasks {
					return
				}
				fn(worker, t)
			}
		}(w)
	}
	wg.Wait()
	recordTasks(tasks)
}

// BudgetChunk is how many search nodes the branch and bound (package mwfs)
// expands between two polls of its Deadline, so the hot loop gains one
// predictable branch, not a clock read per node.
const BudgetChunk = 256

// Metrics are the optional observability hook (see internal/obs): a counter
// of pool tasks dispatched, so trace reports can show where parallel search
// time goes. The registry pointer is atomic so EnableMetrics is safe to call
// while pools run; a nil registry (the default) keeps the hot path at one
// atomic load.
var metricsReg atomic.Pointer[obs.Registry]

// EnableMetrics routes pool telemetry into reg (the "parsearch.pool.tasks"
// counter). Pass nil to disable.
func EnableMetrics(reg *obs.Registry) {
	metricsReg.Store(reg)
}

func recordTasks(n int) {
	if reg := metricsReg.Load(); reg != nil {
		reg.Counter("parsearch.pool.tasks").Add(int64(n))
	}
}
