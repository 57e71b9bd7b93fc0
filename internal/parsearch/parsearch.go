// Package parsearch is the deterministic multi-core search kernel shared by
// the repository's three hot solvers: the branch-and-bound MWFS search
// (package mwfs), the PTAS shifted-grid DP (core.PTAS) and the exact MCS
// state-space search (core.ExactMCS).
//
// It provides exactly the three primitives a deterministic parallel
// branch-and-bound needs and nothing else:
//
//   - ForEach, a fixed-size worker pool over an indexed task list. Tasks are
//     claimed by atomic counter, so scheduling is work-stealing-free and
//     allocation-free; determinism comes from the CALLER merging per-task
//     results by task index, never by completion order.
//   - Incumbent, the shared best-weight bound. It is a monotone atomic
//     maximum: stale reads are always a LOWER bound on the true incumbent,
//     so a worker pruning against a stale value only prunes less than it
//     could — correctness is never at stake, only wasted nodes.
//   - Budget, the global node allowance. Workers reserve nodes in chunks so
//     the hot search loop never contends on the shared counter; exhaustion
//     is a single monotone transition every worker observes, which is what
//     makes a truncated parallel result carry the same Exact=false meaning
//     as a truncated sequential one.
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

// Incumbent is the shared best-weight bound of a parallel branch-and-bound:
// a monotone atomic maximum. Reads may be arbitrarily stale; staleness only
// weakens pruning (a stale value is a valid lower bound on the final best),
// never correctness. Solvers preserving a sequential tie-break must prune
// strictly BELOW the incumbent (ub < Get()), because a tie found in an
// earlier subtree of the deterministic merge order must stay discoverable
// in every later subtree.
type Incumbent struct {
	v atomic.Int64
}

// NewIncumbent returns an incumbent holding the given initial bound.
func NewIncumbent(initial int) *Incumbent {
	in := &Incumbent{}
	in.v.Store(int64(initial))
	return in
}

// Get returns the current bound (possibly stale by the time it is used —
// that is fine, see the type comment).
func (in *Incumbent) Get() int { return int(in.v.Load()) }

// Propose raises the bound to w if w is larger; lower proposals are no-ops.
func (in *Incumbent) Propose(w int) {
	nw := int64(w)
	for {
		cur := in.v.Load()
		if cur >= nw || in.v.CompareAndSwap(cur, nw) {
			return
		}
	}
}

// BudgetChunk is how many nodes a worker reserves from the shared Budget at
// a time. Chunking keeps the per-node cost of budget accounting at one
// local decrement; the price is that a truncated parallel search may expand
// up to workers×BudgetChunk nodes past the cap, versus exactly one for the
// sequential path. Exact=false means the same thing either way: the global
// allowance ran out before the tree did.
const BudgetChunk = 256

// Budget is a shared node allowance for a truncation-capped search. The
// caller-facing contract is monotone: once exhausted, every subsequent
// Reserve returns 0, on every worker. An attached Deadline (WithDeadline)
// piggybacks cooperative cancellation on the same chunked cadence: Reserve
// polls it once per call, so a deadline costs the search one check per
// BudgetChunk nodes, never one per node.
type Budget struct {
	max  int64
	used atomic.Int64
	dl   *Deadline
}

// NewBudget returns a budget of max nodes. max <= 0 is an unlimited budget.
func NewBudget(max int) *Budget {
	return &Budget{max: int64(max)}
}

// WithDeadline attaches a cooperative deadline to the budget and returns
// the budget for chaining. A nil deadline is a no-op. Once the deadline
// expires, every subsequent Reserve returns 0 on every worker — the same
// monotone transition as node exhaustion, so solver truncation handling
// covers both causes with one code path; TimedOut distinguishes them.
func (b *Budget) WithDeadline(dl *Deadline) *Budget {
	b.dl = dl
	return b
}

// Reserve grants up to n nodes from the allowance and returns how many were
// granted (0 when the budget is exhausted or the attached deadline has
// expired). Grants are charged immediately; callers keep unused grant
// remainders charged — the slack is bounded by one chunk per worker and
// only matters in already-truncated searches.
func (b *Budget) Reserve(n int) int {
	if b.dl.Poll() {
		return 0
	}
	if b.max <= 0 {
		return n
	}
	after := b.used.Add(int64(n))
	over := after - b.max
	if over <= 0 {
		return n
	}
	granted := int64(n) - over
	if granted < 0 {
		granted = 0
	}
	return int(granted)
}

// Exhausted reports whether the allowance has run out (node cap hit or
// deadline expired).
func (b *Budget) Exhausted() bool {
	return (b.max > 0 && b.used.Load() >= b.max) || b.dl.Expired()
}

// TimedOut reports whether the attached deadline (if any) has expired —
// how callers split "anytime: out of time" from "truncated: out of nodes".
func (b *Budget) TimedOut() bool { return b.dl.Expired() }

// Metrics are the optional observability hooks (see internal/obs): a
// counter of pool tasks dispatched and a histogram of per-subtree node
// counts, so trace reports can show where parallel search time goes. The
// registry pointer is atomic so EnableMetrics is safe to call while pools
// run; a nil registry (the default) keeps the hot path at one atomic load.
var metricsReg atomic.Pointer[obs.Registry]

// EnableMetrics routes pool telemetry into reg ("parsearch.pool.tasks"
// counter, "parsearch.subtree_nodes" histogram). Pass nil to disable.
func EnableMetrics(reg *obs.Registry) {
	metricsReg.Store(reg)
}

func recordTasks(n int) {
	if reg := metricsReg.Load(); reg != nil {
		reg.Counter("parsearch.pool.tasks").Add(int64(n))
	}
}

// RecordSubtreeNodes feeds one solved subtree's expanded-node count into the
// metrics histogram; no-op while metrics are disabled.
func RecordSubtreeNodes(nodes int) {
	if reg := metricsReg.Load(); reg != nil {
		reg.Histogram("parsearch.subtree_nodes").Observe(float64(nodes))
	}
}
