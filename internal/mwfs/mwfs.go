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
// with a conflict-aware form of the subadditive bound w(X ∪ S) <= w(X) +
// Σ_{v∈S} w({v}), which holds because a newly activated reader can only
// create well-covered tags inside its own interrogation region: S ranges
// only over the later candidates that no member of the current set blocks
// (DESIGN.md §10). A blocked candidate skips its include branch, so the
// blocked bitset is also the feasibility test. cand[j] is blocked by an
// included cand[i], i < j, iff cand[j]'s conflict row holds cand[i];
// Algorithm 3's flooded matrices can be asymmetric, so the direction
// matters. The bound is admissible and prunes only subtrees that cannot
// strictly beat the incumbent, so every untruncated search returns the
// first maximum in DFS pre-order.
package mwfs

import (
	"fmt"
	"math/bits"
	"slices"

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
	// branch-and-bound over a worker pool where every worker owns an
	// evaluator over the shared compiled kernel (see parallel.go). For any
	// Workers value an untruncated search returns a bit-identical Result.Set
	// and Weight — the deterministic-merge argument is in DESIGN.md §11 — while
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

	// BruteForce scores every search node with a full System.Weight
	// recompute instead of the compiled local kernel's incremental
	// evaluator — kept for differential tests and the wbench regression
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
// current unread-tag state of sys. The candidates slice is not mutated, and
// sys is only read (except by BruteForce, which uses its Weight scratch), so
// solves on one System may run concurrently.
func Solve(sys *model.System, candidates []int, opts Options) Result {
	maxNodes := opts.MaxNodes
	if maxNodes <= 0 {
		maxNodes = defaultMaxNodes
	}
	conf, confW := conflictMatrix(sys, opts.Conflicts)

	// The compiled local kernel drops candidates already committed in the
	// context (activating a reader twice is not a thing), orders the rest by
	// singleton weight, heaviest first — good solutions early make the bound
	// bite — and evaluates w(cur ∪ ctx) incrementally as the search pushes
	// and pops readers (DESIGN.md §10).
	k := model.CompileLocal(sys, opts.Context, candidates, conf, confW)
	defer k.Release()
	sr := newSearchRange(k)
	n := len(sr.cand)

	// Parallel engine: only when a real pool was requested and the frontier
	// split leaves the workers non-trivial subtrees to chew on. A candidate
	// list no deeper than the split depth would put the whole tree inside
	// the (sequential) frontier expansion anyway.
	if workers := parsearch.Normalize(opts.Workers); workers >= 2 {
		if d := frontierDepth(n, workers); n > d {
			return solveParallel(sys, k, sr, opts, maxNodes, workers, d)
		}
	}

	buf := make([]int, 2*n)
	s := &solver{
		searchRange: sr,
		blk:         sr.newBlocker(1),
		cur:         buf[:0:n],
		best:        buf[n:n], // empty set, marginal weight 0
		maxNodes:    maxNodes,
		exact:       true,
		dl:          opts.Deadline,
	}
	if opts.BruteForce {
		s.brute = newBrute(sys, k)
		s.ctxW = s.brute.ctxW
	} else {
		s.eval = k.Evals(1)[0]
		s.ctxW = s.eval.Weight()
	}
	s.rec(0, 0, sr.total)

	set := append([]int(nil), s.best...)
	slices.Sort(set)
	return Result{Set: set, Weight: s.bestW, Exact: s.exact, TimedOut: s.timedOut, Nodes: s.nodes}
}

type solver struct {
	searchRange
	eval     *model.LocalEval // nil on the brute-force path
	brute    *brute           // nil on the kernel path
	blk      blocker
	cur      []int
	best     []int
	bestW    int
	nodes    int
	maxNodes int
	exact    bool
	timedOut bool
	ctxW     int
	dl       *parsearch.Deadline
}

// brute scores search nodes with a full System.Weight recompute
// (Options.BruteForce).
type brute struct {
	sys     *model.System
	ctx     []int // the deduplicated context
	ctxW    int
	scratch []int
}

func newBrute(sys *model.System, k *model.LocalKernel) *brute {
	b := &brute{sys: sys}
	for _, c := range k.Context() {
		b.ctx = append(b.ctx, int(c))
	}
	b.ctxW = sys.Weight(b.ctx)
	return b
}

// marginal returns w(cur ∪ ctx) - w(ctx).
func (b *brute) marginal(cur []int) int {
	b.scratch = append(append(b.scratch[:0], cur...), b.ctx...)
	return b.sys.Weight(b.scratch) - b.ctxW
}

// rec expands the node at candidate position i with marginal weight curW
// and avail, the summed singleton weight of the unblocked positions >= i.
func (s *solver) rec(i, curW, avail int) {
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
	// Bound: the unblocked candidates past i add at most avail.
	if curW+avail <= s.bestW {
		return
	}
	// A member of the current set rules cand[i] out: exclude only.
	if s.blk.has(i) {
		s.rec(i+1, curW, avail)
		return
	}
	rest := avail - s.single[i]
	// Branch 1: include cand[i], blocking its later conflicts.
	s.cur = append(s.cur, s.cand[i])
	lost := s.blk.block(i)
	if s.eval != nil {
		s.rec(i+1, s.eval.Push(s.loc[i])-s.ctxW, rest-lost)
		s.eval.Pop()
	} else {
		s.rec(i+1, s.brute.marginal(s.cur), rest-lost)
	}
	s.blk.unblock(i)
	s.cur = s.cur[:len(s.cur)-1]
	// Branch 2: exclude cand[i].
	s.rec(i+1, curW, rest)
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

// searchRange is the read-only search input every engine shares: the
// kernel's ordered candidates, their kernel reader indices, singleton
// weights and block rows, and the summed singleton weight (the root's
// avail).
type searchRange struct {
	cand   []int
	loc    []int32
	single []int
	rows   []uint64
	rowW   int
	total  int
}

func newSearchRange(k *model.LocalKernel) searchRange {
	sr := searchRange{cand: k.Candidates(), loc: k.LocalIDs(), single: k.Singles()}
	sr.rows, sr.rowW = k.BlockRows()
	for _, w := range sr.single {
		sr.total += w
	}
	return sr
}

// blocker is one searcher's conflict state over candidate positions: the
// positions some member of the current set rules out, and an undo log of
// the words each block call overwrote, unwound in LIFO order like
// model.LocalEval.
type blocker struct {
	rows   []uint64 // the kernel's block rows, shared read-only
	single []int
	bits   []uint64
	log    []uint64
}

// newBlocker returns an empty blocker whose words are at least minWords
// long, so parallel workers' hot words never share a cache line.
func (sr *searchRange) newBlocker(minWords int) blocker {
	// Each include logs at most rowW words, and at most len(cand) positions
	// are included at once, so the log never grows past its capacity.
	n := sr.rowW * (1 + len(sr.cand))
	buf := make([]uint64, max(n, minWords))
	return blocker{rows: sr.rows, single: sr.single, bits: buf[:sr.rowW], log: buf[sr.rowW:sr.rowW]}
}

func (b *blocker) has(i int) bool { return b.bits[uint(i)>>6]&(1<<(uint(i)&63)) != 0 }

// block marks the later conflicts of included position i and returns the
// summed singleton weight of the positions it newly blocked. Row i has no
// bits at or before i, so the words below i>>6 are left alone.
func (b *blocker) block(i int) int {
	rowW := len(b.bits)
	row := b.rows[i*rowW : (i+1)*rowW]
	lost := 0
	for w := i >> 6; w < rowW; w++ {
		old := b.bits[w]
		b.log = append(b.log, old)
		for nb := row[w] &^ old; nb != 0; nb &= nb - 1 {
			lost += b.single[w<<6|bits.TrailingZeros64(nb)]
		}
		b.bits[w] = old | row[w]
	}
	return lost
}

// unblock undoes the most recent block, which must have been block(i).
func (b *blocker) unblock(i int) {
	base := len(b.log) - (len(b.bits) - i>>6)
	copy(b.bits[i>>6:], b.log[base:])
	b.log = b.log[:base]
}

// reset clears every block at once, dropping the log.
func (b *blocker) reset() {
	clear(b.bits)
	b.log = b.log[:0]
}
