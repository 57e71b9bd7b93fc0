package parsearch

import (
	"sync/atomic"
	"time"
)

// Deadline is the cooperative cancellation token of the anytime solver
// contracts (DESIGN.md §12). Every solver in the stack — the MWFS branch
// and bound, the PTAS square DP, Algorithm 2's growth loop, the exact MCS
// BFS — periodically Polls the deadline at a fixed work cadence (the branch
// and bound once per BudgetChunk nodes, so the hot loops gain one
// predictable branch, not a syscall per node). When a poll reports
// expiry the solver stops expanding, keeps its best-so-far FEASIBLE
// incumbent, and reports the truncation through its result status; it never
// returns an error and never returns an infeasible set.
//
// A Deadline expires for either of two reasons, checked in this order:
//
//   - the deterministic poll budget ran out (PollBudget mode): expiry is a
//     pure function of how many polls happened, so sequential solvers are
//     bit-reproducible under truncation — the mode tests and CI use;
//   - the wall clock passed the deadline instant (After / At).
//
// Modes combine: a Deadline may carry both a poll budget and a wall clock,
// and whichever trips first wins. Expiry is sticky — once expired, always
// expired — which is the monotone transition every worker of a pool
// observes.
//
// A nil *Deadline never expires; every method is nil-receiver safe, so call
// sites need no guard. A Deadline is safe for concurrent use; with pooled
// workers (PTAS or ExactMCS at Workers >= 2) the poll budget is consumed in
// scheduler order, so deterministic truncation is only guaranteed on a
// sequential path — parallel deadline truncation is anytime-correct but not
// bit-reproducible.
type Deadline struct {
	wall  time.Time        // zero = no wall-clock deadline
	now   func() time.Time // test hook; nil = time.Now
	polls atomic.Int64     // remaining poll allowance in deterministic mode
	det   bool             // poll budget active
	dead  atomic.Bool      // sticky expiry
}

// After returns a deadline expiring d from now. Non-positive d is already
// expired.
func After(d time.Duration) *Deadline { return At(time.Now().Add(d)) }

// At returns a deadline expiring at instant t.
func At(t time.Time) *Deadline { return &Deadline{wall: t} }

// PollBudget returns a deterministic deadline that expires after n polls.
// Non-positive n is already expired. This is the node-count fallback mode:
// truncation depends only on the poll count, never on the clock, so tests
// and CI reproduce the same truncated result on any machine.
func PollBudget(n int) *Deadline {
	d := &Deadline{det: true}
	d.polls.Store(int64(n))
	if n <= 0 {
		d.dead.Store(true)
	}
	return d
}

// WithWall adds a wall-clock deadline to d (combining with an existing poll
// budget) and returns d for chaining.
func (d *Deadline) WithWall(t time.Time) *Deadline {
	d.wall = t
	return d
}

// SetNow overrides the clock (tests). Not safe to call concurrently with
// polling.
func (d *Deadline) SetNow(now func() time.Time) { d.now = now }

// Expired reports whether the deadline has passed without consuming poll
// budget: sticky expiry and the wall clock are checked; the
// deterministic allowance is only consumed by Poll. Safe on a nil receiver
// (never expired).
func (d *Deadline) Expired() bool {
	if d == nil {
		return false
	}
	if d.dead.Load() {
		return true
	}
	if !d.wall.IsZero() {
		now := time.Now
		if d.now != nil {
			now = d.now
		}
		if !now().Before(d.wall) {
			d.dead.Store(true)
			return true
		}
	}
	return false
}

// Poll consumes one unit of the deterministic allowance (when in poll-budget
// mode) and reports whether the deadline has expired. Solvers call it once
// per chunk of work; nil receivers report false at the cost of one branch.
func (d *Deadline) Poll() bool {
	if d == nil {
		return false
	}
	if d.det && !d.dead.Load() {
		if d.polls.Add(-1) < 0 {
			d.dead.Store(true)
			return true
		}
	}
	return d.Expired()
}
