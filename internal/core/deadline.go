package core

import (
	"time"

	"rfidsched/internal/parsearch"
)

// Deadline is the anytime-solving cancellation token threaded through the
// solver stack (DESIGN.md §12). It is an alias of parsearch.Deadline — the
// type lives in the search kernel so mwfs and the solvers can poll it
// without an import cycle — re-exported here because core is the package
// callers configure solvers through.
//
// Two families of deadline exist:
//
//   - wall-clock (NewDeadline): the production mode, bounding per-slot
//     latency in real time;
//   - deterministic poll budgets (NewPollBudget): the reproducible
//     fallback, expiring after a fixed number of cooperative polls so
//     tests and CI observe the exact same truncation on every machine.
//
// Every solver receiving an expired or mid-run-expiring deadline still
// returns a FEASIBLE (pairwise-independent) scheduling set — its best
// incumbent so far, possibly empty — with its anytime status set; deadlines
// never surface as errors or infeasible sets.
type Deadline = parsearch.Deadline

// NewDeadline returns a wall-clock deadline expiring d from now.
func NewDeadline(d time.Duration) *Deadline { return parsearch.After(d) }

// NewPollBudget returns a deterministic deadline expiring after n
// cooperative polls — the node-count fallback mode for reproducible
// truncation in tests and CI.
func NewPollBudget(n int) *Deadline { return parsearch.PollBudget(n) }

// DeadlineSetter is implemented by schedulers that accept a per-call
// deadline (PTAS, Growth, baseline.Exact). RunMCS uses it to hand each
// slot its share of the time budget, mirroring the SetWorkers plumbing.
type DeadlineSetter interface {
	SetDeadline(*Deadline)
}

// AnytimeReporter is implemented by schedulers that can report whether
// their most recent OneShot call was truncated by a deadline (returned an
// anytime incumbent rather than running to completion).
type AnytimeReporter interface {
	Anytime() bool
}
