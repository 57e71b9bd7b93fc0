// Package mwfs provides an exact branch-and-bound solver for the Maximum
// Weighted Feasible Scheduling set problem (Definition 6) restricted to a
// candidate subset of readers.
//
// It serves three masters:
//
//   - the exact baseline used as ground truth in approximation-ratio tests,
//   - Algorithm 2/3's local computation of Γ_r(v), the MWFS inside the r-hop
//     ball of a seed reader (the paper "computes it by enumeration",
//     justified by the growth-bounded property of interference graphs —
//     balls contain few mutually independent readers), and
//   - ablation benchmarks comparing exact and approximate one-shot weights.
//
// The search orders candidates by decreasing singleton weight and prunes
// with the subadditive bound w(X ∪ S) <= w(X) + Σ_{v∈S} w({v}), which holds
// because a newly activated reader can only create well-covered tags inside
// its own interrogation region.
package mwfs

import (
	"fmt"

	"rfidsched/internal/model"
	"rfidsched/internal/parsearch"
)

// Options tunes the search.
type Options struct {
	// MaxNodes caps the number of search-tree nodes; 0 means the default
	// (4M). When the cap is hit the best set found so far is returned with
	// Exact=false in the result.
	MaxNodes int

	// Workers selects the search engine: values below 2 run the sequential
	// reference path (kept for differential tests), higher values fan the
	// branch-and-bound over a worker pool where every worker owns a System
	// clone and incremental evaluator (see parallel.go). For any Workers
	// value an untruncated search returns a bit-identical Result.Set and
	// Weight — the deterministic-merge argument is in DESIGN.md §11 — while
	// Result.Nodes may differ (stale incumbent reads change how much is
	// pruned, never what is returned). When MaxNodes truncates the search,
	// the anytime best may legitimately differ across worker counts; the
	// shared Exact=false flag means the same thing in every mode: the
	// global node allowance ran out before the tree did.
	Workers int

	// Conflicts overrides the feasibility relation with a packed conflict
	// matrix in the layout of model.System.ConflictBits: reader v's row
	// occupies words [v*stride, (v+1)*stride) with stride =
	// (NumReaders+63)/64, bit u set iff u and v may not be active together,
	// self bit set. Algorithms 2 and 3 pass interference-graph rows here so
	// that feasibility is judged purely from the (possibly survey-estimated)
	// graph, never from geometry. Nil means the system's geometric
	// independence (Def. 2). The matrix is only read, so one slice may back
	// concurrent solves.
	Conflicts []uint64

	// Context lists readers already committed to be active elsewhere. The
	// solver then maximizes the MARGINAL weight w(set ∪ Context) -
	// w(Context), so interrogation overlaps between the candidate set and
	// the context are charged to the candidates. Candidates are not
	// required to be independent from the context — feasibility across
	// clusters is the caller's concern (Algorithms 2/3 guarantee it by hop
	// separation); the context only shapes the objective. Context is a set:
	// candidates already present in it are skipped (re-activating a reader
	// is meaningless), and duplicate entries are ignored.
	Context []int

	// BruteForce disables the incremental weight evaluator and scores every
	// search node with a full System.Weight recompute — the pre-evaluator
	// behavior, kept for differential tests and the wbench regression
	// baseline. Results are identical either way; only the cost differs.
	BruteForce bool

	// Deadline is the anytime contract (DESIGN.md §12): the search polls it
	// once per parsearch.BudgetChunk nodes (piggybacked on the chunked
	// budget reservations on the parallel path) and, on expiry, stops
	// expanding and returns the best feasible set found so far with
	// TimedOut set. The empty set is feasible, so even a deadline that is
	// already expired at entry yields a valid (if empty) result, never an
	// error. nil means no deadline. Deterministic truncation is guaranteed
	// only in poll-budget mode with Workers < 2; see parsearch.Deadline.
	Deadline *parsearch.Deadline
}

// Result reports the solved set and search telemetry.
type Result struct {
	Set      []int // reader indices, ascending
	Weight   int
	Exact    bool // false if the node cap or deadline truncated the search
	TimedOut bool // true if Options.Deadline expired mid-search (anytime result)
	Nodes    int  // search nodes expanded (timing-dependent when Workers >= 2)
}

const defaultMaxNodes = 4 << 20

// Solve returns a maximum-weight feasible subset of candidates for the
// current unread-tag state of sys. The candidates slice is not mutated.
func Solve(sys *model.System, candidates []int, opts Options) Result {
	maxNodes := opts.MaxNodes
	if maxNodes <= 0 {
		maxNodes = defaultMaxNodes
	}

	// Order by singleton weight, heaviest first: good solutions early make
	// the bound bite. Candidates already committed in the context cannot
	// contribute (activating a reader twice is not a thing) and are dropped.
	inCtx := make(map[int]bool, len(opts.Context))
	for _, c := range opts.Context {
		inCtx[c] = true
	}
	cand := make([]int, 0, len(candidates))
	for _, v := range candidates {
		if v >= 0 && v < sys.NumReaders() && !inCtx[v] {
			cand = append(cand, v)
		}
	}
	single := make(map[int]int, len(cand))
	for _, v := range cand {
		single[v] = sys.SingletonWeight(v)
	}
	insertionSortBy(cand, func(a, b int) bool {
		if single[a] != single[b] {
			return single[a] > single[b]
		}
		return a < b
	})

	// suffix[i] = sum of singleton weights of cand[i:]; upper bound on any
	// weight still obtainable from the remaining candidates.
	suffix := make([]int, len(cand)+1)
	for i := len(cand) - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + single[cand[i]]
	}

	conf, confW := conflictMatrix(sys, opts.Conflicts)

	// Parallel engine: only when a real pool was requested and the frontier
	// split leaves the workers non-trivial subtrees to chew on. A candidate
	// list no deeper than the split depth would put the whole tree inside
	// the (sequential) frontier expansion anyway.
	if workers := parsearch.Normalize(opts.Workers); workers >= 2 {
		if d := frontierDepth(len(cand), workers); len(cand) > d {
			return solveParallel(sys, cand, suffix, conf, confW, opts, maxNodes, workers, d)
		}
	}

	s := &solver{
		sys:      sys,
		conf:     conf,
		confW:    confW,
		curBits:  make([]uint64, confW),
		cand:     cand,
		suffix:   suffix,
		maxNodes: maxNodes,
		exact:    true,
		ctx:      opts.Context,
		dl:       opts.Deadline,
	}
	if opts.BruteForce {
		s.ctxW = sys.Weight(opts.Context)
	} else {
		// Incremental path: hold cur ∪ ctx in a WeightEval so each
		// include/backtrack is an O(Δ) push/pop instead of a full recompute
		// per node. Weights are bit-identical to the brute force
		// (differentially tested), so the search — and thus Result — is too.
		// The evaluator is pool-recycled: local MWFS runs once per ball per
		// slot, and its counter slices dominate the per-call footprint.
		s.eval = model.NewPooledWeightEval(sys)
		defer s.eval.Close()
		for _, c := range opts.Context {
			s.eval.Add(c)
		}
		s.ctxW = s.eval.Weight()
	}
	s.best = append([]int(nil), s.cur...) // empty set, marginal weight 0
	s.rec(0, 0)

	set := append([]int(nil), s.best...)
	insertionSortBy(set, func(a, b int) bool { return a < b })
	return Result{Set: set, Weight: s.bestW, Exact: s.exact, TimedOut: s.timedOut, Nodes: s.nodes}
}

type solver struct {
	sys      *model.System
	eval     *model.WeightEval // nil on the brute-force path
	conf     []uint64          // conflict matrix (see conflictMatrix)
	confW    int
	curBits  []uint64 // bitset mirror of cur, maintained by rec
	cand     []int
	suffix   []int
	cur      []int
	curW     int
	best     []int
	bestW    int
	nodes    int
	maxNodes int
	exact    bool
	timedOut bool
	ctx      []int
	ctxW     int
	dl       *parsearch.Deadline
	scratch  []int
}

// marginal returns w(cur ∪ ctx) - w(ctx) for the current partial set.
func (s *solver) marginal() int {
	if len(s.ctx) == 0 {
		return s.sys.Weight(s.cur)
	}
	s.scratch = s.scratch[:0]
	s.scratch = append(s.scratch, s.cur...)
	s.scratch = append(s.scratch, s.ctx...)
	return s.sys.Weight(s.scratch) - s.ctxW
}

func (s *solver) rec(i, curW int) {
	if s.timedOut {
		return
	}
	s.nodes++
	if s.nodes > s.maxNodes {
		s.exact = false
		return
	}
	// Anytime contract: poll the deadline at the budget-chunk cadence (the
	// first node polls too, so an expired-at-entry deadline truncates the
	// search before any expansion). Expiry keeps the incumbent as-is — it
	// is feasible by construction — and unwinds the recursion.
	if s.nodes%parsearch.BudgetChunk == 1 && s.dl.Poll() {
		s.timedOut = true
		s.exact = false
		return
	}
	if curW > s.bestW {
		s.bestW = curW
		s.best = append(s.best[:0], s.cur...)
	}
	if i >= len(s.cand) {
		return
	}
	// Bound: nothing past i can add more than suffix[i].
	if curW+s.suffix[i] <= s.bestW {
		return
	}

	v := s.cand[i]
	// Branch 1: include v if feasible with the current set.
	if feasibleBits(s.conf, s.confW, v, s.curBits) {
		s.cur = append(s.cur, v)
		s.curBits[uint(v)>>6] |= 1 << (uint(v) & 63)
		if s.eval != nil {
			s.eval.Add(v)
			s.rec(i+1, s.eval.Weight()-s.ctxW)
			s.eval.Remove(v)
		} else {
			s.rec(i+1, s.marginal())
		}
		s.curBits[uint(v)>>6] &^= 1 << (uint(v) & 63)
		s.cur = s.cur[:len(s.cur)-1]
	}
	// Branch 2: exclude v.
	s.rec(i+1, curW)
}

// conflictMatrix resolves Options.Conflicts: nil selects the system's own
// geometric conflict bitsets, anything else must have the same shape.
func conflictMatrix(sys *model.System, override []uint64) ([]uint64, int) {
	if override == nil {
		return sys.ConflictBits()
	}
	n := sys.NumReaders()
	w := (n + 63) / 64
	if len(override) != n*w {
		panic(fmt.Sprintf("mwfs: Options.Conflicts has %d words, want %d readers x %d", len(override), n, w))
	}
	return override, w
}

// feasibleBits reports whether candidate v conflicts with no member of the
// bitset-mirrored current set: a word-AND of v's conflict row against the
// set bits. This is the only feasibility test of every solver in the
// package; the self bit also rejects a duplicate candidate.
func feasibleBits(conf []uint64, confW, v int, curBits []uint64) bool {
	row := conf[v*confW : (v+1)*confW]
	for k, w := range row {
		if w&curBits[k] != 0 {
			return false
		}
	}
	return true
}

// insertionSortBy sorts a small slice in place with the given less func;
// candidate lists here are tiny (<= number of readers), so this beats the
// interface overhead of sort.Slice on the hot local-MWFS path.
func insertionSortBy(a []int, less func(x, y int) bool) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && less(a[j], a[j-1]); j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}
