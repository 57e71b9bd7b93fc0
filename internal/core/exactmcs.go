package core

import (
	"fmt"
	"sync/atomic"

	"rfidsched/internal/model"
	"rfidsched/internal/parsearch"
)

// ExactMCS solves the Minimum Covering Schedule problem (Definition 5)
// optimally on tiny instances by breadth-first search over unread-tag
// states. MCS is NP-hard (Section III), so this is strictly a measuring
// instrument: tests compare the greedy driver's schedule length against the
// true optimum to check Theorem 1's log(n) factor empirically, with far
// more bite than the theorem itself (greedy is usually optimal or +1 at
// these sizes).
//
// State space: the set of unread coverable tags (bitmask, <= MaxTags).
// Actions: all maximal feasible scheduling sets (enumerated once up front —
// non-maximal sets are dominated because activating an extra independent
// reader never unreads a tag... it CAN reduce the served set through RRc,
// so non-maximal subsets of each maximal set are also expanded lazily via
// the "serve subset" trick below).
//
// A subtlety Definition 1 forces on us: serving MORE tags is not always
// better — a tag served now was possibly the only companion of another tag
// in an overlap, and order can matter. BFS over exact states sidesteps all
// such reasoning: it simply finds the shortest path from the initial state
// to the all-read state.
//
// All three phases parallelize deterministically (DESIGN.md §11): feasible
// sets are enumerated over fixed mask ranges and concatenated in range
// order; served bitsets are precomputed per set on worker-owned clones
// (Covered mutates System scratch); and the BFS runs level-synchronously —
// workers expand fixed frontier segments, and the sequential merge walks the
// segments in frontier order, which reproduces the sequential insertion
// order exactly. The answer is a BFS depth, so it is identical at any
// worker count by construction.
type ExactMCS struct {
	// MaxTags caps the coverable-tag count (state space 2^MaxTags).
	// Default 20.
	MaxTags int
	// MaxReaders caps the reader count (feasible-set enumeration 2^n).
	// Default 16.
	MaxReaders int
	// Workers fans the three phases over a pool; values below 2 run the
	// same segmented code inline. The returned slot count is identical for
	// every value.
	Workers int
}

// Solve returns the minimum number of slots needed to read every coverable
// tag of sys, or an error if the instance exceeds the solver's caps. The
// system is not mutated.
func (e ExactMCS) Solve(sys *model.System) (int, error) {
	slots, _, err := e.solve(sys, nil)
	return slots, err
}

// SolveAnytime is Solve under the anytime contract (DESIGN.md §12). Before
// the exponential BFS starts it computes a FEASIBLE upper bound — the
// greedy covering-schedule length on a clone, always a valid answer to
// "how many slots suffice" — and then polls dl at chunk granularity through
// all three phases. On expiry it returns the bound with exact=false instead
// of blocking; with dl nil (or never expiring) it returns the optimum with
// exact=true. Cap violations still error: an oversized instance is a usage
// error, not a timeout.
func (e ExactMCS) SolveAnytime(sys *model.System, dl *Deadline) (slots int, exact bool, err error) {
	return e.solve(sys, dl)
}

func (e ExactMCS) solve(sys *model.System, dl *Deadline) (int, bool, error) {
	maxTags := e.MaxTags
	if maxTags <= 0 {
		maxTags = 20
	}
	maxReaders := e.MaxReaders
	if maxReaders <= 0 {
		maxReaders = 16
	}
	if n := sys.NumReaders(); n > maxReaders {
		return 0, false, fmt.Errorf("core: ExactMCS caps readers at %d, have %d", maxReaders, n)
	}
	workers := parsearch.Normalize(e.Workers)

	// Index the coverable tags.
	var coverable []int
	tagBit := map[int]int{}
	for t := 0; t < sys.NumTags(); t++ {
		if len(sys.ReadersOf(t)) > 0 {
			tagBit[t] = len(coverable)
			coverable = append(coverable, t)
		}
	}
	if len(coverable) == 0 {
		return 0, true, nil
	}
	if len(coverable) > maxTags {
		return 0, false, fmt.Errorf("core: ExactMCS caps coverable tags at %d, have %d", maxTags, len(coverable))
	}

	// Anytime upper bound: the greedy covering schedule always terminates
	// (every slot reads at least one remaining tag) and its length answers
	// "how many slots suffice", so it is the feasible incumbent the BFS
	// falls back to on expiry. Computed on a clone — sys stays unmutated —
	// and only when a deadline can actually expire.
	ub := 0
	if dl != nil {
		greedy := model.Func{SchedName: "greedy-ub", F: func(s *model.System) ([]int, error) {
			return greedyFallback(s), nil
		}}
		r, gerr := RunMCS(sys.Clone(), greedy, MCSOptions{})
		if gerr != nil {
			return 0, false, gerr
		}
		ub = r.Size
	}
	// poll is the shared chunk-cadence deadline check: workers of all three
	// phases call it once per chunk/segment, and the latch makes expiry a
	// monotone transition every worker observes.
	var timedOut atomic.Bool
	poll := func() bool {
		if dl == nil {
			return false
		}
		if timedOut.Load() {
			return true
		}
		if dl.Poll() {
			timedOut.Store(true)
			return true
		}
		return false
	}

	// Enumerate every feasible scheduling set once. IsFeasible reads only
	// immutable geometry, so workers scan disjoint ascending mask ranges on
	// the shared system; concatenating the ranges in order reproduces the
	// sequential ascending-mask list exactly.
	n := sys.NumReaders()
	total := 1 << n
	const maskChunk = 4096
	numChunks := (total + maskChunk - 1) / maskChunk
	chunkSets := make([][][]int, numChunks)
	parsearch.ForEach(workers, numChunks, func(_, c int) {
		if poll() {
			return
		}
		lo := c * maskChunk
		if lo == 0 {
			lo = 1 // the empty set is not a scheduling set
		}
		hi := (c + 1) * maskChunk
		if hi > total {
			hi = total
		}
		var out [][]int
		for mask := lo; mask < hi; mask++ {
			var set []int
			for v := 0; v < n; v++ {
				if mask&(1<<v) != 0 {
					set = append(set, v)
				}
			}
			if sys.IsFeasible(set) {
				out = append(out, set)
			}
		}
		chunkSets[c] = out
	})
	var feasibleSets [][]int
	for _, out := range chunkSets {
		feasibleSets = append(feasibleSets, out...)
	}
	if timedOut.Load() {
		return ub, false, nil
	}

	// servedMask(set, unread) depends on the unread state only through
	// which tags are unread — but Definition 1's well-covered predicate is
	// state-independent geometry (exactly one ACTIVE cover), so the served
	// bitset of a reader set is fixed: compute once per set. Covered mutates
	// System-owned scratch, so each pool worker serves from a private clone.
	served := make([]uint32, len(feasibleSets))
	base := sys.Clone()
	base.ResetReads()
	const setChunk = 256
	setChunks := (len(feasibleSets) + setChunk - 1) / setChunk
	workSys := make([]*model.System, max(workers, 1))
	parsearch.ForEach(workers, setChunks, func(w, c int) {
		if poll() {
			return
		}
		work := base
		if workers >= 2 {
			if workSys[w] == nil {
				workSys[w] = base.ClonePooled()
			}
			work = workSys[w]
		}
		lo, hi := c*setChunk, (c+1)*setChunk
		if hi > len(feasibleSets) {
			hi = len(feasibleSets)
		}
		for i := lo; i < hi; i++ {
			for _, t := range work.Covered(feasibleSets[i], nil) {
				served[i] |= 1 << tagBit[int(t)]
			}
		}
	})
	for _, ws := range workSys {
		if ws != nil {
			ws.Release()
		}
	}

	if timedOut.Load() {
		return ub, false, nil
	}

	full := uint32(1<<len(coverable)) - 1
	start := uint32(0)
	for t := 0; t < sys.NumTags(); t++ {
		if bit, ok := tagBit[t]; ok && sys.IsRead(t) {
			start |= 1 << bit
		}
	}
	if start == full {
		return 0, true, nil
	}

	// Level-synchronous BFS over read-state bitmasks. Each level, workers
	// expand fixed segments of the frontier into per-segment successor
	// lists; dist is frozen during expansion (reads only) and the merge
	// replays the segments in frontier order, so insertion order — and the
	// frontier of the next level — matches the sequential queue walk.
	dist := map[uint32]int{start: 0}
	frontier := []uint32{start}
	for d := 0; len(frontier) > 0; d++ {
		segs := 1
		if workers >= 2 {
			segs = workers * 4
			if segs > len(frontier) {
				segs = len(frontier)
			}
		}
		succ := make([][]uint32, segs)
		parsearch.ForEach(workers, segs, func(_, c int) {
			if poll() {
				return
			}
			lo := c * len(frontier) / segs
			hi := (c + 1) * len(frontier) / segs
			var out []uint32
			for _, state := range frontier[lo:hi] {
				for i := range feasibleSets {
					next := state | served[i]
					if next == state {
						continue
					}
					if _, seen := dist[next]; seen {
						continue
					}
					out = append(out, next)
				}
			}
			succ[c] = out
		})
		if timedOut.Load() {
			// A BFS level died mid-expansion: its successor lists are
			// partial, so the depth found so far proves nothing. The greedy
			// bound is the anytime answer.
			return ub, false, nil
		}
		frontier = frontier[:0]
		for _, out := range succ {
			for _, next := range out {
				if _, seen := dist[next]; seen {
					continue
				}
				if next == full {
					return d + 1, true, nil
				}
				dist[next] = d + 1
				frontier = append(frontier, next)
			}
		}
	}
	return 0, false, fmt.Errorf("core: ExactMCS found no covering schedule (unreachable state)")
}
