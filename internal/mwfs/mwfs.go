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
// with a bound built on the subadditive w(X ∪ S) <= w(X) + Σ_{v∈S} w({v}),
// which holds because a newly activated reader can only create well-covered
// tags inside its own interrogation region (DESIGN.md §10). The extension S
// ranges only over the later candidates that no member of the current set
// blocks, and holds at most one candidate of each clique of the kernel's
// static clique partition, so it adds at most cover, the summed singleton
// weight of each clique's heaviest unblocked later member — the colour bound
// of Tomita and Seki's MCQ. Cliques are taken in the block direction, so the
// bound stays sound for asymmetric conflict rows.
//
// A blocked candidate skips its include branch, so the blocked bitset is
// also the feasibility test. cand[j] is blocked by an included cand[i], i <
// j, iff cand[j]'s conflict row holds cand[i]; Algorithm 3's flooded
// matrices can be asymmetric, so the direction matters. The bound is
// admissible and prunes only subtrees that cannot strictly beat the
// incumbent, so every untruncated search returns the first maximum in DFS
// pre-order.
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
	// evaluator — kept for differential tests and the microbench regression
	// baseline. Results are identical either way; only the cost differs.
	BruteForce bool

	// Deadline is the anytime contract (DESIGN.md §12): the search polls it
	// once per parsearch.BudgetChunk nodes and, on expiry, stops expanding
	// and returns the best feasible set found so far with TimedOut set. The
	// empty set is feasible, so even a deadline that is already expired at
	// entry yields a valid (if empty) result, never an error. nil means no
	// deadline. A poll-budget deadline (parsearch.PollBudget) truncates
	// deterministically: the polls fall at fixed node counts.
	Deadline *parsearch.Deadline
}

// Result reports the solved set and search telemetry.
type Result struct {
	Set      []int // reader indices, ascending
	Weight   int
	Exact    bool // false if the node cap or deadline truncated the search
	TimedOut bool // true if Options.Deadline expired mid-search (anytime result)
	Nodes    int  // search nodes expanded; a function of the instance and the caps
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
	// singleton weight, heaviest first — good solutions early make the
	// bound bite — and evaluates w(cur ∪ ctx) incrementally as the search
	// pushes and pops readers (DESIGN.md §10).
	k := model.CompileLocal(sys, opts.Context, candidates, conf, confW)
	defer k.Release()
	cand := k.Candidates()
	n := len(cand)
	_, _, heads := k.CoverCliques()

	buf := make([]int, 2*n+len(heads))
	s := &solver{
		cand:     cand,
		loc:      k.LocalIDs(),
		single:   k.Singles(),
		blk:      newBlocker(k, buf[2*n:]),
		cur:      buf[:0:n],
		best:     buf[n:n], // empty set, marginal weight 0
		maxNodes: maxNodes,
		exact:    true,
		dl:       opts.Deadline,
	}
	if opts.BruteForce {
		s.brute = newBrute(sys, k)
		s.ctxW = s.brute.ctxW
	} else {
		s.eval = k.Eval()
		s.ctxW = s.eval.Weight()
	}
	cover := 0
	for _, h := range heads {
		cover += s.single[h]
	}
	s.rec(0, 0, cover)

	set := append([]int(nil), s.best...)
	slices.Sort(set)
	return Result{Set: set, Weight: s.bestW, Exact: s.exact, TimedOut: s.timedOut, Nodes: s.nodes}
}

type solver struct {
	cand     []int            // the kernel's candidates in search order
	loc      []int32          // their kernel reader indices
	single   []int            // their singleton weights
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
// and cover, the summed singleton weight of every clique's head.
func (s *solver) rec(i, curW, cover int) {
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
	// Bound: the unblocked candidates past i add at most one member per
	// clique, so at most cover.
	if i >= len(s.cand) || curW+cover <= s.bestW {
		return
	}
	// A member of the current set rules cand[i] out: exclude only. A
	// blocked position heads no clique, so cover stays.
	if s.blk.has(i) {
		s.rec(i+1, curW, cover)
		return
	}
	// Branch 1: include cand[i], blocking its later conflicts.
	s.cur = append(s.cur, s.cand[i])
	drop := s.blk.block(i)
	if s.eval != nil {
		s.rec(i+1, s.eval.Push(s.loc[i])-s.ctxW, cover-drop)
		s.eval.Pop()
	} else {
		s.rec(i+1, s.brute.marginal(s.cur), cover-drop)
	}
	s.blk.unblock(i)
	s.cur = s.cur[:len(s.cur)-1]
	// Branch 2: exclude cand[i].
	s.rec(i+1, curW, cover-s.blk.pass(i))
	s.blk.unpass(i)
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

// blocker is the searcher's conflict state over candidate positions: the
// positions some member of the current set rules out, with an undo log of
// the words each block call overwrote, unwound in LIFO order like
// model.LocalEval; and the head of every clique of the kernel's partition,
// its first unblocked position at or after the search position (len(single)
// when there is none), whose singleton weights sum to cover. A head moves
// only when its position is blocked or passed, so a node touches the heads
// of the positions it changes and no others.
type blocker struct {
	rows   []uint64 // the kernel's block rows, shared read-only
	clique []int32  // the kernel's cover cliques, shared read-only
	next   []int32
	single []int
	bits   []uint64
	log    []uint64
	head   []int
}

// newBlocker returns an empty blocker over k's positions whose heads, one
// per clique, live in head.
func newBlocker(k *model.LocalKernel, head []int) blocker {
	rows, rowW := k.BlockRows()
	clique, next, heads := k.CoverCliques()
	for c, h := range heads {
		head[c] = int(h)
	}
	// Each include logs at most rowW words, and at most len(cand) positions
	// are included at once, so the log never grows past its capacity.
	buf := make([]uint64, rowW*(1+len(clique)))
	return blocker{rows: rows, clique: clique, next: next, single: k.Singles(),
		bits: buf[:rowW], log: buf[rowW:rowW], head: head}
}

func (b *blocker) has(i int) bool { return b.bits[uint(i)>>6]&(1<<(uint(i)&63)) != 0 }

// weight is the singleton weight of head position q, 0 for no head.
func (b *blocker) weight(q int) int {
	if q < len(b.single) {
		return b.single[q]
	}
	return 0
}

// nextOpen returns the first unblocked position of p's clique after p.
func (b *blocker) nextOpen(p int) int {
	q := int(b.next[p])
	for q < len(b.single) && b.has(q) {
		q = int(b.next[q])
	}
	return q
}

// block includes position i, the head of its clique: it marks i's later
// conflicts and returns how far cover falls. Row i has no bits at or before
// i, so the words below i>>6 are left alone. It blocks every later member
// of i's clique, so that clique loses its head. A newly blocked head moves
// to its clique's next unblocked position; positions are visited in
// ascending order, so a head that lands on a position blocked in a later
// word moves on again when that position is visited.
func (b *blocker) block(i int) int {
	rowW := len(b.bits)
	row := b.rows[i*rowW : (i+1)*rowW]
	drop := b.single[i]
	for w := i >> 6; w < rowW; w++ {
		old := b.bits[w]
		b.log = append(b.log, old)
		b.bits[w] = old | row[w]
		for nb := row[w] &^ old; nb != 0; nb &= nb - 1 {
			p := w<<6 | bits.TrailingZeros64(nb)
			if c := b.clique[p]; b.head[c] == p {
				q := b.nextOpen(p)
				b.head[c] = q
				drop += b.single[p] - b.weight(q)
			}
		}
	}
	b.head[b.clique[i]] = len(b.single)
	return drop
}

// unblock undoes the most recent block, which must have been block(i):
// every position it unblocks heads its clique again if it comes first.
func (b *blocker) unblock(i int) {
	rowW := len(b.bits)
	row := b.rows[i*rowW : (i+1)*rowW]
	base := len(b.log) - (rowW - i>>6)
	for w := i >> 6; w < rowW; w++ {
		old := b.log[base+w-i>>6]
		for nb := row[w] &^ old; nb != 0; nb &= nb - 1 {
			p := w<<6 | bits.TrailingZeros64(nb)
			if c := b.clique[p]; p < b.head[c] {
				b.head[c] = p
			}
		}
		b.bits[w] = old
	}
	b.log = b.log[:base]
	b.head[b.clique[i]] = i
}

// pass moves the search past unblocked position i without including it:
// the head of i's clique moves to its next unblocked position. It returns
// how far cover falls; unpass undoes it.
func (b *blocker) pass(i int) int {
	q := b.nextOpen(i)
	b.head[b.clique[i]] = q
	return b.single[i] - b.weight(q)
}

func (b *blocker) unpass(i int) { b.head[b.clique[i]] = i }
