// Package baseline implements the comparison algorithms of the paper's
// evaluation (Section VI) — Colorwave (CA) and Greedy Hill-Climbing (GHC) —
// plus an exact one-shot solver and a random feasible baseline used as
// ground truth and sanity floor in tests and ablations.
package baseline

import (
	"container/heap"

	"rfidsched/internal/model"
)

// GHC is the Greedy Hill-Climbing baseline exactly as the paper describes
// it: "at each step, we select a reader to add to current active reader
// set, in order to maximize the incremental weight together with other
// active readers at this time-slot. Then we keep adding the reader to the
// active set one by one recursively until the weight starts to decrease
// (the incremental weight becomes negative) due to various collisions."
//
// Note GHC optimizes raw weight and may activate readers that conflict —
// the weight function charges it for the resulting RTc/RRc losses, exactly
// like the physical system would.
//
// The selection loop is a CELF-style lazy priority queue over marginal
// gains, backed by the compiled weight kernel (model.CompileLocal) over all
// readers: an addition is a Push and a gain probe a Push/Pop. Classic CELF
// trusts stale cached gains because a submodular objective only shrinks
// them; this weight function is NOT submodular (activating a reader that
// un-cleans a neighbor can *raise* a third reader's gain), so stale entries
// may understate the truth and pure pop-and-refresh would be unsound. The
// queue is kept exact by event-driven invalidation instead: adding reader u
// can only change the gain of readers within two hops of u in the coupling
// graph (System.CouplingNeighbors — interference in either direction or
// shared coverage), so exactly that 2-hop ball is re-priced per step, each
// reader by one Push/Pop, and superseded heap entries are skipped on pop
// (lazy deletion). On the growth-bounded interference graphs of the paper
// the ball is a small constant, replacing the brute force's n full weight
// recomputes per step. Schedules are bit-identical to the reference
// implementation: same gains, same (gain desc, index asc) selection order.
type GHC struct {
	// Brute selects with the O(n·|X|·deg) reference scan — a full weight
	// recompute per candidate per step — instead of the lazy queue. Kept
	// for differential tests and the microbench regression baseline; the
	// schedule produced is identical either way.
	Brute bool
}

// Name implements model.OneShotScheduler.
func (GHC) Name() string { return "GHC" }

// OneShot implements model.OneShotScheduler.
func (g GHC) OneShot(sys *model.System) ([]int, error) {
	if g.Brute {
		return ghcBrute(sys)
	}
	return ghcLazy(sys)
}

// ghcBrute is the reference implementation: every step rescans all
// candidates with full weight recomputes.
func ghcBrute(sys *model.System) ([]int, error) {
	n := sys.NumReaders()
	inSet := make([]bool, n)
	var X []int
	curW := 0
	for len(X) < n {
		bestV := -1
		bestGain := -1 << 30
		for v := 0; v < n; v++ {
			if inSet[v] {
				continue
			}
			X = append(X, v)
			gain := sys.Weight(X) - curW
			X = X[:len(X)-1]
			// Ties broken by lowest index for determinism.
			if gain > bestGain {
				bestV, bestGain = v, gain
			}
		}
		// The paper's stopping rule: keep adding "until the weight starts
		// to decrease (the incremental weight becomes negative)" — i.e.
		// zero-gain readers are still added.
		if bestV < 0 || bestGain < 0 {
			return X, nil
		}
		X = append(X, bestV)
		inSet[bestV] = true
		curW += bestGain
	}
	return X, nil
}

// gainEntry is one cached marginal gain in the lazy queue. version pairs
// the entry with the evaluation that produced it; a popped entry whose
// version lags the reader's current one is a superseded duplicate and is
// discarded (lazy deletion).
type gainEntry struct {
	gain    int
	v       int
	version int32
}

// gainHeap orders by gain descending, then reader index ascending, which
// reproduces the reference scan's argmax-with-lowest-index-ties rule.
type gainHeap []gainEntry

func (h gainHeap) Len() int { return len(h) }
func (h gainHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].v < h[j].v
}
func (h gainHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *gainHeap) Push(x any)   { *h = append(*h, x.(gainEntry)) }
func (h *gainHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// ghcLazy is the lazy-queue implementation; see the GHC doc comment.
func ghcLazy(sys *model.System) ([]int, error) {
	n := sys.NumReaders()
	// GHC activates readers that interfere, so the kernel is compiled with
	// no conflict matrix: every interference pair is kept.
	all := make([]int, n)
	for v := range all {
		all[v] = v
	}
	k := model.CompileLocal(sys, nil, all, nil, 0)
	defer k.Release()
	eval := k.Evals(1)[0]

	cached := make([]int, n)    // current exact gain per candidate
	version := make([]int32, n) // bumped whenever cached[v] is re-pushed
	inSet := make([]bool, n)
	seen := make([]int32, n) // stamp buffer for the 2-hop invalidation walk
	for i := range seen {
		seen[i] = -1
	}

	h := make(gainHeap, 0, n)
	for v := 0; v < n; v++ {
		// Gain over the empty set is the singleton weight (O(1) counter).
		cached[v] = sys.SingletonWeight(v)
		h = append(h, gainEntry{gain: cached[v], v: v})
	}
	heap.Init(&h)

	var X []int
	curW := 0
	step := int32(0)
	for h.Len() > 0 {
		top := heap.Pop(&h).(gainEntry)
		if inSet[top.v] || top.version != version[top.v] {
			continue // superseded entry
		}
		if top.gain < 0 {
			break // every live cached gain is exact, so nothing can improve
		}
		u := top.v
		X = append(X, u)
		inSet[u] = true
		curW = eval.Push(k.Local(u))
		step++

		// Re-price the 2-hop coupling ball of u — the only readers whose
		// marginal gain the addition can have changed.
		reprice := func(w int) {
			if inSet[w] || seen[w] == step {
				return
			}
			seen[w] = step
			g := eval.Push(k.Local(w)) - curW
			eval.Pop()
			if g != cached[w] {
				cached[w] = g
				version[w]++
				heap.Push(&h, gainEntry{gain: g, v: w, version: version[w]})
			}
		}
		for _, w1 := range sys.CouplingNeighbors(u) {
			reprice(int(w1))
			for _, w2 := range sys.CouplingNeighbors(int(w1)) {
				reprice(int(w2))
			}
		}
	}
	return X, nil
}
