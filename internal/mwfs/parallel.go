package mwfs

// Parallel branch-and-bound (Options.Workers >= 2). The search tree is split
// at a FIXED frontier depth d derived only from the candidate count and the
// worker count — never from timing — so the set of subtree roots is a pure
// function of the instance. The caller's goroutine expands the tree
// breadth-limited to depth d in the exact sequential DFS pre-order
// (include-first), recording two kinds of merge items as it goes:
//
//   - eval items: internal nodes that strictly improved the running best
//     during expansion (their partial set is a candidate answer), and
//   - task items: subtree roots at depth d, handed to the worker pool.
//
// Workers solve subtrees on private evaluators over the one compiled local
// kernel (which is immutable), sharing only two atomics: the incumbent bound
// and the global node budget. The incumbent is monotone, so stale reads weaken
// pruning but never soundness; workers prune strictly BELOW it (ub <
// incumbent) — never at equality — because a tie found in an earlier merge
// item must remain discoverable everywhere for the tie-break to match the
// sequential scan.
//
// The deterministic merge then replays the item sequence in order with the
// sequential update rule (strictly greater wins, first achiever kept):
// because items appear in global DFS pre-order and every subtree reports the
// first occurrence of its own maximum, the merged answer is exactly the set
// the sequential search returns — at any worker count, under any
// interleaving. The full argument, including why pruned regions can never
// contain the first achiever of the final weight, is written out in
// DESIGN.md §11.

import (
	"slices"

	"rfidsched/internal/model"
	"rfidsched/internal/parsearch"
)

// frontierDepth returns the fixed split depth: the smallest d whose full
// binary frontier 2^d reaches ~8 subtree roots per worker (feasibility
// pruning thins the real frontier, so this overshoots on purpose), capped so
// the sequential expansion stays trivially cheap.
func frontierDepth(candLen, workers int) int {
	d := 0
	for (1<<d) < 8*workers && d < 14 && d < candLen {
		d++
	}
	return d
}

// task is one frontier subtree root: the include-prefix over cand[0:depth],
// as candidate positions, its (marginal) weight and its avail, emitted in
// global DFS pre-order.
type task struct {
	prefix []int32
	w      int
	avail  int
}

// mergeItem is one entry of the deterministic merge sequence. taskIdx >= 0
// refers to a pool task; otherwise the item is an expansion-time candidate
// answer (set, w).
type mergeItem struct {
	taskIdx int
	set     []int
	w       int
}

// taskResult is a worker's answer for one subtree: the first occurrence of
// the subtree's maximum in subtree DFS order (hasBest=false when the budget
// died before the root was even visited).
type taskResult struct {
	set       []int
	w         int
	hasBest   bool
	nodes     int
	truncated bool
}

func solveParallel(sys *model.System, k *model.LocalKernel, sr searchRange, opts Options, maxNodes, workers, depth int) Result {
	// The deadline rides the budget: Reserve polls it once per chunk, so
	// expiry drains every worker through the same monotone "grant = 0"
	// transition as node exhaustion (anytime contract, DESIGN.md §12).
	budget := parsearch.NewBudget(maxNodes).WithDeadline(opts.Deadline)

	// Phase 1: sequential frontier expansion on the caller's goroutine. The
	// expansion and every worker get an evaluator over the shared kernel;
	// the brute-force path scores with System.Weight instead, on a private
	// clone per worker (Weight uses System scratch).
	x := &expander{searchRange: sr, blk: sr.newBlocker(1), depth: depth, budget: budget}
	var evals []*model.LocalEval
	var b *brute
	if opts.BruteForce {
		b = newBrute(sys, k)
		x.brute, x.ctxW = b, b.ctxW
	} else {
		evals = k.Evals(workers + 1)
		x.eval, x.ctxW = evals[0], evals[0].Weight()
	}
	x.expand(0, 0, sr.total)

	// Phase 2: subtree solves on the pool. The incumbent starts at the
	// expansion-time best — every weight it will ever hold has been achieved
	// by some merge item, which is what makes strict-below pruning sound.
	incumbent := parsearch.NewIncumbent(x.bestW)
	results := make([]taskResult, len(x.tasks))
	solvers := make([]*psolver, workers)
	parsearch.ForEach(workers, len(x.tasks), func(worker, ti int) {
		ps := solvers[worker]
		if ps == nil {
			// Per-worker scratch is allocated at cache-line size or more,
			// so two workers' hot words never share a line.
			ps = &psolver{
				searchRange: sr,
				blk:         sr.newBlocker(8),
				cur:         make([]int, 0, max(len(sr.cand), 8)),
				best:        make([]int, 0, max(len(sr.cand), 8)),
				depth:       depth,
				incumbent:   incumbent,
				budget:      budget,
			}
			if b != nil {
				ps.brute = &brute{sys: sys.ClonePooled(), ctx: b.ctx, ctxW: b.ctxW}
				ps.ctxW = b.ctxW
			} else {
				ps.eval = evals[worker+1]
				ps.ctxW = ps.eval.Weight()
			}
			solvers[worker] = ps
		}
		results[ti] = ps.solveTask(x.tasks[ti])
		parsearch.RecordSubtreeNodes(results[ti].nodes)
	})
	for _, ps := range solvers {
		if ps != nil && ps.brute != nil {
			ps.brute.sys.Release()
		}
	}

	// Phase 3: deterministic merge in item (= DFS pre-order) order, with the
	// sequential update rule: strictly greater wins, first achiever kept.
	best, bestW := []int{}, 0
	nodes := x.nodes
	truncated := x.truncated
	for _, it := range x.items {
		if it.taskIdx < 0 {
			if it.w > bestW {
				best, bestW = it.set, it.w
			}
			continue
		}
		r := results[it.taskIdx]
		nodes += r.nodes
		truncated = truncated || r.truncated
		if r.hasBest && r.w > bestW {
			best, bestW = r.set, r.w
		}
	}

	set := append([]int(nil), best...)
	slices.Sort(set)
	return Result{Set: set, Weight: bestW, Exact: !truncated, TimedOut: budget.TimedOut(), Nodes: nodes}
}

// expander runs the depth-limited sequential DFS that builds the merge-item
// sequence. It mirrors solver.rec exactly on internal nodes; at the split
// depth it emits a task instead of recursing.
type expander struct {
	searchRange
	eval   *model.LocalEval // nil on the brute-force path
	brute  *brute           // nil on the kernel path
	blk    blocker
	depth  int
	ctxW   int
	budget *parsearch.Budget

	cur       []int
	path      []int32 // candidate positions of cur
	bestW     int
	nodes     int
	grant     int
	truncated bool
	items     []mergeItem
	tasks     []task
}

func (x *expander) expand(i, curW, avail int) {
	if i == x.depth {
		x.items = append(x.items, mergeItem{taskIdx: len(x.tasks)})
		x.tasks = append(x.tasks, task{prefix: append([]int32(nil), x.path...), w: curW, avail: avail})
		return
	}
	if x.grant == 0 {
		x.grant = x.budget.Reserve(parsearch.BudgetChunk)
		if x.grant == 0 {
			x.truncated = true
			return
		}
	}
	x.grant--
	x.nodes++
	if curW > x.bestW {
		x.bestW = curW
		x.items = append(x.items, mergeItem{taskIdx: -1, set: append([]int(nil), x.cur...), w: curW})
	}
	// Bound: the running expansion best is a lower bound on the sequential
	// best-so-far at this pre-order position, so pruning against it prunes
	// no subtree the sequential search would have kept.
	if curW+avail <= x.bestW {
		return
	}
	if x.blk.has(i) {
		x.expand(i+1, curW, avail)
		return
	}
	rest := avail - x.single[i]
	x.cur = append(x.cur, x.cand[i])
	x.path = append(x.path, int32(i))
	lost := x.blk.block(i)
	if x.eval != nil {
		x.expand(i+1, x.eval.Push(x.loc[i])-x.ctxW, rest-lost)
		x.eval.Pop()
	} else {
		x.expand(i+1, x.brute.marginal(x.cur), rest-lost)
	}
	x.blk.unblock(i)
	x.cur = x.cur[:len(x.cur)-1]
	x.path = x.path[:len(x.path)-1]
	x.expand(i+1, curW, rest)
}

// psolver is one worker's private search state: its own evaluator over the
// shared kernel (or, brute force, a pooled System clone for Weight's
// scratch) plus the chunked view of the global node budget.
type psolver struct {
	searchRange
	eval      *model.LocalEval // nil on the brute-force path
	brute     *brute           // nil on the kernel path; owns a pooled clone
	blk       blocker
	ctxW      int
	depth     int
	incumbent *parsearch.Incumbent
	budget    *parsearch.Budget

	cur       []int
	best      []int
	bestW     int
	hasBest   bool
	nodes     int
	grant     int
	truncated bool
}

// solveTask runs the subtree rooted at t: push and block the prefix,
// search, unwind. The search resumes at candidate index ps.depth, NOT
// len(t.prefix): the prefix holds only the candidates the expander INCLUDED
// among cand[0:depth] — exclude branches and blocked skips make it shorter
// than the frontier depth, and resuming early would re-decide candidates
// the expander already settled (re-including prefix members, re-visiting
// excluded ones).
func (ps *psolver) solveTask(t task) taskResult {
	ps.cur = ps.cur[:0]
	ps.best = ps.best[:0]
	ps.bestW = 0
	ps.hasBest = false
	ps.nodes = 0
	ps.truncated = false
	for _, i := range t.prefix {
		ps.cur = append(ps.cur, ps.cand[i])
		ps.blk.block(int(i))
		if ps.eval != nil {
			ps.eval.Push(ps.loc[i])
		}
	}
	ps.rec(ps.depth, t.w, t.avail)
	ps.blk.reset()
	if ps.eval != nil {
		for range ps.cur {
			ps.eval.Pop()
		}
	}
	return taskResult{
		set:       append([]int(nil), ps.best...),
		w:         ps.bestW,
		hasBest:   ps.hasBest,
		nodes:     ps.nodes,
		truncated: ps.truncated,
	}
}

// rec is solver.rec with two changes: the local best is root-seeded (the
// subtree must report the first occurrence of its own maximum, and the root
// node is its first node), and the prune bound folds in the shared incumbent
// strictly (ties with an earlier subtree's weight stay explorable so the
// deterministic merge can prefer the earlier achiever).
func (ps *psolver) rec(i, curW, avail int) {
	if ps.grant == 0 {
		ps.grant = ps.budget.Reserve(parsearch.BudgetChunk)
		if ps.grant == 0 {
			ps.truncated = true
			return
		}
	}
	ps.grant--
	ps.nodes++
	if !ps.hasBest || curW > ps.bestW {
		ps.hasBest = true
		ps.bestW = curW
		ps.best = append(ps.best[:0], ps.cur...)
		ps.incumbent.Propose(curW)
	}
	if i >= len(ps.cand) {
		return
	}
	ub := curW + avail
	if ub <= ps.bestW || ub < ps.incumbent.Get() {
		return
	}
	if ps.blk.has(i) {
		ps.rec(i+1, curW, avail)
		return
	}
	rest := avail - ps.single[i]
	ps.cur = append(ps.cur, ps.cand[i])
	lost := ps.blk.block(i)
	if ps.eval != nil {
		ps.rec(i+1, ps.eval.Push(ps.loc[i])-ps.ctxW, rest-lost)
		ps.eval.Pop()
	} else {
		ps.rec(i+1, ps.brute.marginal(ps.cur), rest-lost)
	}
	ps.blk.unblock(i)
	ps.cur = ps.cur[:len(ps.cur)-1]
	ps.rec(i+1, curW, rest)
}
