package core

import (
	"slices"
	"strconv"

	"rfidsched/internal/geom"
	"rfidsched/internal/model"
	"rfidsched/internal/mwfs"
	"rfidsched/internal/parsearch"
)

// PTAS is Algorithm 1: the polynomial-time approximation scheme for the
// One-Shot Schedule Problem when reader locations are known and radii are
// heterogeneous (Section IV).
//
// The instance is scaled so the largest interference radius is 1/2, disks
// are binned into levels by radius (level j holds disks with
// 1/(k+1)^(j+1) < 2R <= 1/(k+1)^j), and for each of the k^2 (r,s)-shiftings
// the disks that hit a shifted grid line of their level are discarded
// ("survive" filter). The survivors nest perfectly: a survive disk of level
// j lies strictly inside exactly one j-square, and every shifted line of a
// coarse level persists at all finer levels, so j-squares tile into
// (k+1)^2 child (j+1)-squares. A dynamic program then walks the square
// hierarchy: in each square it enumerates up to Lambda independent disks of
// the square's level, recurses into the children with the chosen disks
// threaded through as context, and keeps the candidate with the largest
// exact weight. Theorem 2 guarantees some shifting preserves a
// (1-1/k)^2 fraction of the optimal weight.
//
// Faithfulness note (see DESIGN.md §6): because w is subadditive the DP
// evaluates every candidate with the exact weight function over the full
// union (cheap at paper scale) rather than summing child values; context
// filtering to intersecting disks is lossless because interrogation regions
// are contained in interference disks.
//
// Parallelism: content-bearing level-0 squares ("roots") hold disjoint
// subtrees whose solutions union additively, and the k^2 shiftings are
// independent computations over shared geometry — so the unit of fan-out is
// the (shifting, root) pair. Every root gets its own memo table (subtrees
// never share squares, so a shared table gains nothing) and a fixed
// per-root share of the evaluation budget, applied identically in the
// sequential and parallel paths so results are bit-identical at any worker
// count (DESIGN.md §11).
type PTAS struct {
	// K is the shifting parameter k >= 2; the approximation factor is
	// (1-1/k)^2 and the work grows with k^2 shiftings. Default 3.
	K int

	// Lambda caps the number of same-level disks chosen per square per DP
	// node. Default 6. Larger values improve weight on dense instances at
	// exponential enumeration cost.
	Lambda int

	// MaxEvals caps candidate evaluations as a safety valve on adversarial
	// instances; 0 means the default (2M). The allowance is split into equal
	// deterministic shares per content root of each shifting — never drawn
	// from a shared pool — so exhaustion degrades the same roots by the same
	// amount regardless of Workers. Exhausting the budget degrades quality,
	// never feasibility.
	MaxEvals int

	// Workers fans (shifting, root) subproblems over a pool where each
	// worker evaluates weights on its own System clone; values below 2 run
	// the same task list inline on the calling goroutine. Results are
	// bit-identical across all Workers values. The branch-and-bound inside
	// dense squares stays sequential per task — root-level fan-out is the
	// parallelism, and nesting pools would oversubscribe.
	Workers int

	// Deadline, when non-nil, bounds the call: the square DP polls it once
	// per candidate evaluation and once per inner branch-and-bound chunk,
	// and on expiry every remaining subtree keeps its best-so-far feasible
	// set (possibly empty). The final augmentation pass still runs — it is
	// polynomial and only adds weight — so even a fully expired deadline
	// yields a feasible, progress-making set, never an error (anytime
	// contract, DESIGN.md §12). RunMCS installs a fresh per-slot deadline
	// through SetDeadline.
	Deadline *Deadline

	// LastEvals reports candidate evaluations used by the most recent
	// OneShot call, summed over shiftings. Diagnostic; not concurrency-safe.
	LastEvals int

	// LastTruncated reports how many inner branch-and-bound solves of the
	// most recent OneShot call ran out of their root's share of MaxEvals
	// before finishing (deadline expiry is not counted), summed over
	// shiftings. A truncated dense square is not solved exactly, so the
	// (1-1/k)^2 guarantee holds only when this is 0. Diagnostic; not
	// concurrency-safe.
	LastTruncated int

	// LastShift reports the winning (r,s) shifting of the last call.
	LastShift [2]int

	// lastAnytime records whether the most recent OneShot was truncated by
	// the deadline; see Anytime.
	lastAnytime bool
}

// NewPTAS returns Algorithm 1 with the default parameters (k=3, Λ=6).
func NewPTAS() *PTAS { return &PTAS{K: 3, Lambda: 6} }

// Name implements model.OneShotScheduler.
func (p *PTAS) Name() string { return "Alg1-PTAS" }

// SetWorkers implements the solver-worker plumbing used by
// MCSOptions.SolverWorkers and the CLIs.
func (p *PTAS) SetWorkers(w int) { p.Workers = w }

// SetDeadline implements DeadlineSetter.
func (p *PTAS) SetDeadline(dl *Deadline) { p.Deadline = dl }

// Anytime implements AnytimeReporter: true when the most recent OneShot
// was truncated by the deadline and returned an anytime incumbent.
func (p *PTAS) Anytime() bool { return p.lastAnytime }

// OneShot implements model.OneShotScheduler.
func (p *PTAS) OneShot(sys *model.System) ([]int, error) {
	k := p.K
	if k < 2 {
		k = 3
	}
	lambda := p.Lambda
	if lambda <= 0 {
		lambda = 6
	}
	maxEvals := p.MaxEvals
	if maxEvals <= 0 {
		maxEvals = 2 << 20
	}
	n := sys.NumReaders()
	if n == 0 {
		return nil, nil
	}

	inst := newPTASInstance(sys, k)
	p.LastEvals, p.LastTruncated = 0, 0

	// Classification per shifting is cheap (O(n·levels)) and stays on the
	// calling goroutine; the task list is every (shifting, root) pair in
	// deterministic (r, s, root-order) sequence.
	plans := make([]*shiftPlan, 0, k*k)
	for r := 0; r < k; r++ {
		for s := 0; s < k; s++ {
			plans = append(plans, newShiftPlan(inst, geom.ShiftGrid{K: k, R: r, S: s}, lambda))
		}
	}
	type rootTask struct{ plan, root int }
	var tasks []rootTask
	for pi, pl := range plans {
		for ri := range pl.rootKeys {
			tasks = append(tasks, rootTask{pi, ri})
		}
	}

	type rootResult struct {
		set       []int
		evals     int
		truncated int
		timedOut  bool
	}
	workers := parsearch.Normalize(p.Workers)
	p.lastAnytime = false
	results := make([]rootResult, len(tasks))
	clones := make([]*model.System, max(workers, 1))
	parsearch.ForEach(workers, len(tasks), func(w, t int) {
		wsys := sys
		if workers >= 2 {
			// Weight evaluation mutates System-owned scratch, so each pool
			// worker scores on a private clone (shared immutable geometry).
			if clones[w] == nil {
				clones[w] = sys.ClonePooled()
			}
			wsys = clones[w]
		}
		tk := tasks[t]
		pl := plans[tk.plan]
		share := maxEvals / len(pl.rootKeys)
		if share < 1 {
			share = 1
		}
		dp := &ptasDP{plan: pl, sys: wsys, budget: share, memo: make(map[dpMemoKey][]int), dl: p.Deadline}
		set := dp.solve(pl.rootKeys[tk.root], nil)
		results[t] = rootResult{set: set, evals: dp.evals, truncated: dp.truncated, timedOut: dp.timedOut}
	})
	for _, c := range clones {
		if c != nil {
			c.Release()
		}
	}

	// Deterministic merge: union each shifting's roots in task order (their
	// interrogation regions are disjoint, weights additive), augment, then
	// keep the strictly best shifting in (r,s) order.
	var best []int
	bestW := -1
	idx := 0
	for _, pl := range plans {
		var total []int
		for range pl.rootKeys {
			total = append(total, results[idx].set...)
			p.LastEvals += results[idx].evals
			p.LastTruncated += results[idx].truncated
			p.lastAnytime = p.lastAnytime || results[idx].timedOut
			idx++
		}
		// Augmentation pass: the (r,s)-shifting discarded disks that hit
		// grid lines purely for the analysis; greedily re-adding any
		// discarded reader that stays independent and increases the
		// weight can only help, so Theorem 2's bound is preserved while
		// the small-k survive loss is largely recovered.
		set := augmentFeasible(sys, total)
		if w := sys.Weight(set); w > bestW {
			bestW = w
			best = set
			p.LastShift = [2]int{pl.grid.R, pl.grid.S}
		}
	}
	slices.Sort(best)
	return best, nil
}

// augmentFeasible greedily extends X with readers that keep the set
// feasible and strictly increase its weight, largest marginal first, the
// lowest index winning ties. This is both the PTAS augmentation pass and the
// covering-schedule stall fallback, so it sits on the hot path of every
// driver. Only readers independent of X can ever join, so the weight kernel
// is compiled over X plus just those; two of them are only active together
// when independent, so the pairs the kernel drops never matter, and each
// probe is a Push/Pop instead of a full weight recompute.
func augmentFeasible(sys *model.System, X []int) []int {
	// Feasibility against the working set is a word-AND over the conflict
	// bitsets (identical verdicts to the pairwise Independent loop); the
	// self bit keeps members of the set out.
	conf, confW := sys.ConflictBits()
	curBits := make([]uint64, confW)
	for _, v := range X {
		curBits[uint(v)>>6] |= 1 << (uint(v) & 63)
	}
	feasible := func(v int) bool {
		for k, wd := range conf[v*confW : (v+1)*confW] {
			if wd&curBits[k] != 0 {
				return false
			}
		}
		return true
	}
	var cand []int
	for v := 0; v < sys.NumReaders(); v++ {
		if feasible(v) {
			cand = append(cand, v)
		}
	}
	k := model.CompileLocal(sys, X, cand, conf, confW)
	defer k.Release()
	eval := k.Evals(1)[0]
	cur := append([]int(nil), X...)
	curW := eval.Weight()
	for {
		bestV, bestW := -1, curW
		for _, v := range cand {
			if !feasible(v) {
				continue
			}
			w := eval.Push(k.Local(v))
			eval.Pop()
			if w > bestW {
				bestV, bestW = v, w
			}
		}
		if bestV < 0 {
			return cur
		}
		cur = append(cur, bestV)
		curBits[uint(bestV)>>6] |= 1 << (uint(bestV) & 63)
		curW = eval.Push(k.Local(bestV))
	}
}

// ptasInstance holds the scaled geometry shared by all shiftings.
type ptasInstance struct {
	sys    *model.System
	k      int
	disks  []geom.Disk // scaled interference disks, index == reader index
	levels []int
	maxLvl int
}

func newPTASInstance(sys *model.System, k int) *ptasInstance {
	n := sys.NumReaders()
	inst := &ptasInstance{sys: sys, k: k, disks: make([]geom.Disk, n), levels: make([]int, n)}
	maxR := 0.0
	for i := 0; i < n; i++ {
		if R := sys.Reader(i).InterferenceR; R > maxR {
			maxR = R
		}
	}
	if maxR <= 0 {
		maxR = 1
	}
	scale := 0.5 / maxR
	for i := 0; i < n; i++ {
		rd := sys.Reader(i)
		inst.disks[i] = geom.Disk{Center: rd.Pos.Scale(scale), R: rd.InterferenceR * scale}
		inst.levels[i] = geom.DiskLevel(inst.disks[i].R, k)
		if inst.levels[i] > inst.maxLvl {
			inst.maxLvl = inst.levels[i]
		}
	}
	return inst
}

type sqKey struct{ level, ix, iy int }

// shiftPlan is the read-only classification of one (r,s) shifting, shared by
// every root task of that shifting (and by every pool worker — nothing in it
// is mutated after construction).
type shiftPlan struct {
	inst       *ptasInstance
	grid       geom.ShiftGrid
	lambda     int
	disksAt    map[sqKey][]int // survive disks of the key's level in that square
	hasContent map[sqKey]bool  // square subtree contains at least one survive disk
	rootKeys   []sqKey         // content-bearing level-0 squares, sorted (ix, iy)
}

// newShiftPlan computes survive disks, buckets them by their square, and
// marks the ancestor chain of every occupied square as content-bearing.
func newShiftPlan(inst *ptasInstance, grid geom.ShiftGrid, lambda int) *shiftPlan {
	pl := &shiftPlan{
		inst:       inst,
		grid:       grid,
		lambda:     lambda,
		disksAt:    make(map[sqKey][]int),
		hasContent: make(map[sqKey]bool),
	}
	roots := make(map[sqKey]bool)
	for i, d := range inst.disks {
		lvl := inst.levels[i]
		if !grid.Survives(d, lvl) {
			continue
		}
		ix, iy := grid.SquareIndex(d.Center, lvl)
		key := sqKey{lvl, ix, iy}
		pl.disksAt[key] = append(pl.disksAt[key], i)
		// Mark the chain up to level 0.
		for l := lvl; l >= 0; l-- {
			cix, ciy := grid.SquareIndex(d.Center, l)
			pl.hasContent[sqKey{l, cix, ciy}] = true
			if l == 0 {
				roots[sqKey{0, cix, ciy}] = true
			}
		}
	}
	for kk := range roots {
		pl.rootKeys = append(pl.rootKeys, kk)
	}
	slices.SortFunc(pl.rootKeys, func(a, b sqKey) int {
		if a.ix != b.ix {
			return a.ix - b.ix
		}
		return a.iy - b.iy
	})
	return pl
}

// dpMemoKey is the comparable memo key for (square, context) DP states. The
// previous representation was an fmt-formatted string rebuilt per lookup —
// two allocations and a format pass on the DP's hottest line; contexts are
// short (filtered to disks intersecting one square), so spilling past the
// 8-entry inline array is rare and the common-case key costs zero
// allocations. cmd/microbench reports the resulting allocs/op next to the
// speedup numbers.
type dpMemoKey struct {
	sq   sqKey
	n    int
	a    [8]int32
	rest string
}

func makeMemoKey(key sqKey, ctx []int) dpMemoKey {
	mk := dpMemoKey{sq: key, n: len(ctx)}
	for i, c := range ctx {
		if i < len(mk.a) {
			mk.a[i] = int32(c)
			continue
		}
		mk.rest += strconv.Itoa(c) + ","
	}
	return mk
}

// ptasDP solves one root subtree of one shifting: a private memo table and
// evaluation budget over the shared shiftPlan, scoring on sys (the live
// system sequentially, a worker-owned clone on the pool).
type ptasDP struct {
	plan      *shiftPlan
	sys       *model.System
	budget    int
	evals     int
	truncated int // inner branch-and-bound solves cut by the budget
	memo      map[dpMemoKey][]int
	dl        *parsearch.Deadline
	timedOut  bool
}

// expired polls the deadline (one poll per candidate evaluation — each
// evaluation is a full weight computation, so the poll is noise) and
// latches the anytime flag. Once expired, every remaining solve call
// returns its current best immediately.
func (dp *ptasDP) expired() bool {
	if dp.timedOut {
		return true
	}
	if dp.dl.Poll() {
		dp.timedOut = true
	}
	return dp.timedOut
}

// solve returns the best feasible disk set inside square key's subtree,
// independent from every disk in ctx, judged by exact weight of the union
// with ctx. ctx is sorted ascending.
func (dp *ptasDP) solve(key sqKey, ctx []int) []int {
	mk := makeMemoKey(key, ctx)
	if got, ok := dp.memo[mk]; ok {
		return got
	}
	// Expired: contribute the feasible floor (the empty set) without paying
	// a weight evaluation or recursing. The state is not memoized — it was
	// never solved; expiry is sticky, so re-entry stays this cheap.
	if dp.expired() {
		return nil
	}

	// Candidates of this square's level, pre-filtered against the context.
	var cands []int
	for _, i := range dp.plan.disksAt[key] {
		if dp.compatible(i, ctx) {
			cands = append(cands, i)
		}
	}
	children := dp.contentChildren(key)

	bestSet := []int{}
	bestW := dp.weightWith(nil, ctx)
	evaluate := func(chosen []int) {
		if dp.evals >= dp.budget || dp.expired() {
			return
		}
		dp.evals++
		cand := append([]int(nil), chosen...)
		if len(children) > 0 {
			inner := append(append([]int(nil), ctx...), chosen...)
			slices.Sort(inner)
			for _, ck := range children {
				childCtx := dp.filterIntersecting(inner, ck)
				cand = append(cand, dp.solve(ck, childCtx)...)
			}
		}
		if w := dp.weightWith(cand, ctx); w > bestW {
			bestW = w
			bestSet = cand
		}
	}

	if len(cands) <= dp.plan.lambda*2 {
		// Small candidate pool: enumerate every independent subset D with
		// |D| <= lambda (including the empty set) so the children can adapt
		// to each choice through the threaded context — the textbook DP.
		var enumerate func(start int, chosen []int)
		enumerate = func(start int, chosen []int) {
			evaluate(chosen)
			if len(chosen) >= dp.plan.lambda || dp.evals >= dp.budget || dp.timedOut {
				return
			}
			for i := start; i < len(cands); i++ {
				d := cands[i]
				ok := true
				for _, c := range chosen {
					if !dp.sys.Independent(d, c) {
						ok = false
						break
					}
				}
				if ok {
					enumerate(i+1, append(chosen, d))
				}
			}
		}
		enumerate(0, nil)
	} else {
		// Dense square (the paper's 50-homogeneous-reader evaluation puts
		// nearly every disk at one level inside a handful of squares, where
		// optimal feasible sets hold dozens of disks — far beyond any
		// enumerable Λ). Candidate choices: the empty set, and the
		// branch-and-bound maximum-weight independent subset of the
		// square's own disks. Children still adapt via the context.
		evaluate(nil)
		if remaining := dp.budget - dp.evals; remaining > 0 && !dp.timedOut {
			// The inner branch-and-bound inherits the deadline directly: its
			// own chunked polls truncate the subtree search, and its anytime
			// best is still worth evaluating — the incumbent is feasible.
			res := mwfs.Solve(dp.sys, cands, mwfs.Options{
				MaxNodes: remaining,
				Deadline: dp.dl,
			})
			dp.evals += res.Nodes
			if !res.Exact && !res.TimedOut {
				dp.truncated++
			}
			if res.TimedOut {
				// Expired mid-search: keep the anytime incumbent if it beats
				// the current best (it is feasible against ctx by the cands
				// pre-filter), but skip child recursion — time is up.
				dp.timedOut = true
				if w := dp.weightWith(res.Set, ctx); w > bestW {
					bestW = w
					bestSet = append([]int(nil), res.Set...)
				}
			} else if len(res.Set) > 0 {
				evaluate(res.Set)
			}
		}
	}

	dp.memo[mk] = bestSet
	return bestSet
}

// contentChildren lists the child squares of key that carry survive disks,
// in deterministic order.
func (dp *ptasDP) contentChildren(key sqKey) []sqKey {
	xlo, xhi := dp.plan.grid.ChildXRange(key.ix)
	ylo, yhi := dp.plan.grid.ChildYRange(key.iy)
	var out []sqKey
	for ix := xlo; ix <= xhi; ix++ {
		for iy := ylo; iy <= yhi; iy++ {
			ck := sqKey{key.level + 1, ix, iy}
			if dp.plan.hasContent[ck] {
				out = append(out, ck)
			}
		}
	}
	return out
}

// filterIntersecting keeps the disks of set whose scaled interference disk
// intersects the child square — the only ones that can constrain or overlap
// anything inside it.
func (dp *ptasDP) filterIntersecting(set []int, ck sqKey) []int {
	rect := dp.plan.grid.SquareRect(ck.level, ck.ix, ck.iy)
	var out []int
	for _, i := range set {
		if rect.IntersectsDisk(dp.plan.inst.disks[i]) {
			out = append(out, i)
		}
	}
	return out
}

func (dp *ptasDP) compatible(d int, ctx []int) bool {
	for _, c := range ctx {
		if !dp.sys.Independent(d, c) {
			return false
		}
	}
	return true
}

// weightWith returns w(set ∪ ctx) on the solver's system handle.
func (dp *ptasDP) weightWith(set, ctx []int) int {
	if len(ctx) == 0 {
		return dp.sys.Weight(set)
	}
	u := append(append(make([]int, 0, len(set)+len(ctx)), set...), ctx...)
	return dp.sys.Weight(u)
}
