package baseline

import (
	"rfidsched/internal/model"
	"rfidsched/internal/mwfs"
	"rfidsched/internal/parsearch"
)

// Exact solves the One-Shot Schedule Problem optimally by branch and bound
// over all readers. Exponential in the worst case; intended for small
// instances (tests, approximation-ratio measurements) and for ablations on
// the paper-scale 50-reader deployments, where the interference structure
// keeps the search tractable.
type Exact struct {
	// MaxNodes caps the search; 0 uses the solver default. When hit, the
	// result is the best set found (still feasible), not a failure.
	MaxNodes int
	// Deadline, when non-nil, bounds each OneShot call under the anytime
	// contract: the branch and bound returns its best feasible incumbent
	// (possibly empty) on expiry instead of blocking. core.RunMCS installs
	// a fresh per-slot deadline through SetDeadline.
	Deadline *parsearch.Deadline
	// LastExact records whether the most recent OneShot call completed an
	// exact search. Diagnostic only; not safe for concurrent use.
	LastExact bool
	// lastAnytime records whether the most recent OneShot was truncated by
	// the deadline; see Anytime.
	lastAnytime bool
}

// Name implements model.OneShotScheduler.
func (*Exact) Name() string { return "Exact" }

// SetDeadline implements the core.DeadlineSetter contract.
func (e *Exact) SetDeadline(dl *parsearch.Deadline) { e.Deadline = dl }

// Anytime implements the core.AnytimeReporter contract: true when the most
// recent OneShot was truncated by the deadline.
func (e *Exact) Anytime() bool { return e.lastAnytime }

// OneShot implements model.OneShotScheduler.
func (e *Exact) OneShot(sys *model.System) ([]int, error) {
	cands := make([]int, sys.NumReaders())
	for i := range cands {
		cands[i] = i
	}
	res := mwfs.Solve(sys, cands, mwfs.Options{MaxNodes: e.MaxNodes, Deadline: e.Deadline})
	e.LastExact = res.Exact
	e.lastAnytime = res.TimedOut
	return res.Set, nil
}

// Random returns a uniformly random maximal feasible scheduling set: it
// visits readers in random order and activates each one that stays
// independent of the set so far. It is the sanity floor every published
// algorithm must beat.
type Random struct {
	// Next is the random source; must be non-nil. One instance per
	// goroutine: not safe for concurrent use.
	Next func(n int) int
}

// Name implements model.OneShotScheduler.
func (*Random) Name() string { return "Random" }

// OneShot implements model.OneShotScheduler.
func (r *Random) OneShot(sys *model.System) ([]int, error) {
	n := sys.NumReaders()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Next(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	var X []int
	for _, v := range order {
		ok := true
		for _, u := range X {
			if !sys.Independent(u, v) {
				ok = false
				break
			}
		}
		if ok {
			X = append(X, v)
		}
	}
	return X, nil
}
