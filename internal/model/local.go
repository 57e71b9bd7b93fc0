package model

// This file implements the compiled local weight kernel, the one incremental
// engine for w(X): every branch-and-bound MWFS solve (package mwfs) and the
// greedy passes (GHC, PTAS augmentation, Growth pruning) run on it. The
// brute-force Weight of weight.go stays the reference. A local solve touches a
// handful of readers — a PTAS square, a growth ball Γ_r(v), an elected
// head's neighbourhood — plus the readers already committed around them, so
// per-tag counters sized to the whole deployment would mostly sit idle. The
// kernel instead compiles, once per solve, just what w(X ∪ ctx) can depend
// on:
//
//   - the unread tags covered by live local readers, renumbered densely, so
//     each reader's coverage is a short list of (word, mask) pairs over a
//     few words;
//   - interference lists restricted to local readers that can ever be
//     active together: pairs of candidates that conflict are never both
//     searched, so they are dropped; context readers are always active and
//     keep every pair, and so does every pair under a nil conflict matrix.
//   - one conflict row per candidate position, in position space, for the
//     search's conflict-aware bound: row i marks the later positions that
//     including cand[i] rules out (BlockRows);
//   - on demand, a greedy partition of the positions into cliques of that
//     block relation, for the search's clique-cover bound (CoverCliques).
//
// A LocalEval over the compiled instance keeps two bitsets, once (tags
// covered by exactly one active live reader) and twice (by two or more),
// plus a running popcount(once). Push and Pop work in strict LIFO order and
// undo through a log of the overwritten once words. The weight is
//
//	w = popcount(once) − Σ popcount(once ∧ cov_u)
//
// summed over the dirty readers u: active live readers that some other
// active reader interferes with (RTc, Definition 1). A once tag has exactly
// one active owner, which serves it unless dirty, so this is exactly w(X)
// of Definition 3 — also when a survey-estimated conflict matrix lets
// interfering readers be active together. With no dirty reader the weight
// is O(1).
//
// The kernel only reads its System (read flags, down mask, adjacency), so
// solves on one System may run concurrently; the instance is immutable
// after CompileLocal and shared by every evaluator drawn from it.

import (
	"math/bits"
)

// LocalKernel is a compiled local MWFS instance: the deduplicated context
// (local readers 0..len(Context())-1) followed by the candidates in search
// order. Obtain one with CompileLocal and return it with Release.
type LocalKernel struct {
	adj *adjCache // owner of the pool Release returns to

	nCtx   int
	glob   []int32  // glob[l]: global index of local reader l
	cand   []int    // candidates in search order (global indices)
	loc    []int32  // loc[i]: local index of cand[i]
	single []int    // single[i]: singleton weight of cand[i]
	rows   []uint64 // rows[i*rowW:(i+1)*rowW]: block row of cand[i] (BlockRows)
	rowW   int
	clique []int32 // clique[i]: the cover clique of position i (CoverCliques)
	next   []int32 // next[i]: the next position of i's clique, len(cand) if none
	heads  []int32 // heads[c]: the first (heaviest) position of clique c
	parted bool    // clique, next and heads describe this compile

	words  int       // bitset words over the local tags
	covOff []int32   // local reader l's coverage pairs are cov[covOff[l]:covOff[l+1]]
	cov    []covPair // per reader, its local tags as (word, mask) pairs
	inOff  []int32   // inDat[inOff[l]:inOff[l+1]]: local readers interfering with l
	inDat  []int32
	outOff []int32 // outDat[outOff[l]:outOff[l+1]]: local readers l interferes with
	outDat []int32

	eval LocalEval // the evaluator of this instance, reused across compiles

	// readerLocal maps global reader indices to local ones (Local); it is
	// all -1 while the kernel sits in the pool.
	readerLocal []int32

	// Compile scratch. tagLocal maps global tag indices to local ones and is
	// all -1 between compiles; acc is all zero.
	tagLocal []int32
	tagGlob  []int32
	acc      []uint64
	accWords []int32
	common   []uint64 // per clique, the positions every member blocks
	tail     []int32  // per clique, its last position so far
}

// covPair is one word of a reader's coverage bitset over the local tags.
type covPair struct {
	w int32
	m uint64
}

// CompileLocal compiles the local instance of a branch-and-bound solve over
// candidates with ctx already active, feasibility given by conf (the
// ConflictBits layout, stride confW; every row must carry its self bit).
// Context entries are deduplicated and out-of-range ones ignored.
// Candidates that are out of range or in the context are dropped; the rest
// are ordered heaviest singleton weight first, ties by ascending index, so
// good sets come early and the search's bound bites. Duplicate candidates
// share one local reader, and the self bit blocks the later copy once the
// first is included.
//
// A nil conf means no pair is known to conflict: every interference pair
// between live local readers is kept, so any set of distinct candidates,
// interfering or not, may be pushed together, and BlockRows are all zero.
// The greedy passes (GHC, PTAS augmentation, Growth pruning) compile this
// way when their sets may hold readers that interfere; candidates must then
// be distinct.
//
// The kernel is drawn from a per-geometry pool; Release returns it.
func CompileLocal(sys *System, ctx, candidates []int, conf []uint64, confW int) *LocalKernel {
	k, _ := sys.adj.localPool.Get().(*LocalKernel)
	if k == nil {
		k = &LocalKernel{adj: sys.adj}
		k.readerLocal = filled(make([]int32, len(sys.readers)), -1)
		k.tagLocal = filled(make([]int32, len(sys.tags)), -1)
		k.acc = make([]uint64, (len(sys.tags)+63)/64)
	}
	n := len(sys.readers)

	// Local readers: the context first, then the candidates in search order.
	k.glob = k.glob[:0]
	for _, c := range ctx {
		if c >= 0 && c < n && k.readerLocal[c] < 0 {
			k.readerLocal[c] = int32(len(k.glob))
			k.glob = append(k.glob, int32(c))
		}
	}
	k.nCtx = len(k.glob)
	k.cand, k.single = k.cand[:0], k.single[:0]
	for _, v := range candidates {
		if v >= 0 && v < n && k.readerLocal[v] < 0 {
			k.cand = append(k.cand, v)
			k.single = append(k.single, sys.SingletonWeight(v))
		}
	}
	cand, single := k.cand, k.single
	for i := 1; i < len(cand); i++ {
		for j := i; j > 0 && (single[j] > single[j-1] || single[j] == single[j-1] && cand[j] < cand[j-1]); j-- {
			cand[j-1], cand[j] = cand[j], cand[j-1]
			single[j-1], single[j] = single[j], single[j-1]
		}
	}
	k.loc = k.loc[:0]
	for _, v := range cand {
		if k.readerLocal[v] < 0 {
			k.readerLocal[v] = int32(len(k.glob))
			k.glob = append(k.glob, int32(v))
		}
		k.loc = append(k.loc, k.readerLocal[v])
	}
	k.compileRows(conf, confW)
	k.parted = false
	k.compileCoverage(sys)
	k.compileInterference(sys, conf, confW)
	return k
}

// compileRows builds the position-space conflict rows: row i has bit j > i
// set iff cand[j]'s conflict row holds cand[i], the direction in which the
// search asks "may cand[j] join a set holding cand[i]?". A flooded or
// survey-estimated matrix may be asymmetric, so cand[i]'s own row would not
// do. Bits at or before i are never set: those positions are settled by the
// time cand[i] is included.
func (k *LocalKernel) compileRows(conf []uint64, confW int) {
	n := len(k.cand)
	k.rowW = (n + 63) / 64
	k.rows = zeroed(k.rows, n*k.rowW)
	if conf == nil {
		return
	}
	for j, v := range k.cand {
		row := conf[v*confW : (v+1)*confW]
		for i, u := range k.cand[:j] {
			if hasBit(row, u) {
				k.rows[i*k.rowW+j>>6] |= 1 << (uint(j) & 63)
			}
		}
	}
}

// compileCliques partitions the positions greedily, heaviest first: position
// j joins the first clique all of whose members block it, or opens a new
// one. Any two members of a clique therefore block each other in the block
// direction — including the earlier rules out the later — which is what
// makes the cover bound sound for asymmetric rows too.
func (k *LocalKernel) compileCliques() {
	n, rowW := len(k.cand), k.rowW
	k.clique, k.next = reserved(k.clique, n)[:n], reserved(k.next, n)[:n]
	k.heads, k.tail, k.common = k.heads[:0], k.tail[:0], k.common[:0]
	for j := range k.cand {
		c := 0
		for c < len(k.heads) && !hasBit(k.common[c*rowW:], j) {
			c++
		}
		row := k.rows[j*rowW : (j+1)*rowW]
		if c == len(k.heads) {
			k.heads = append(k.heads, int32(j))
			k.tail = append(k.tail, int32(j))
			k.common = append(k.common, row...)
		} else {
			k.next[k.tail[c]] = int32(j)
			k.tail[c] = int32(j)
			for w, m := range row {
				k.common[c*rowW+w] &= m
			}
		}
		k.clique[j], k.next[j] = int32(c), int32(n)
	}
}

// compileCoverage renumbers the unread tags of live local readers densely
// (in local reader order, so one reader's fresh tags share words) and packs
// each reader's coverage as (word, mask) pairs. Down readers cover nothing.
func (k *LocalKernel) compileCoverage(sys *System) {
	k.tagGlob = k.tagGlob[:0]
	k.covOff, k.cov = append(k.covOff[:0], 0), k.cov[:0]
	for _, g := range k.glob {
		if !sys.isDown(int(g)) {
			k.accWords = k.accWords[:0]
			for _, t := range sys.tagsOf.row(int(g)) {
				if sys.read[t] {
					continue
				}
				id := k.tagLocal[t]
				if id < 0 {
					id = int32(len(k.tagGlob))
					k.tagLocal[t] = id
					k.tagGlob = append(k.tagGlob, t)
				}
				w := id >> 6
				if k.acc[w] == 0 {
					k.accWords = append(k.accWords, w)
				}
				k.acc[w] |= 1 << (uint(id) & 63)
			}
			for _, w := range k.accWords {
				k.cov = append(k.cov, covPair{w, k.acc[w]})
				k.acc[w] = 0
			}
		}
		k.covOff = append(k.covOff, int32(len(k.cov)))
	}
	k.words = (len(k.tagGlob) + 63) / 64
	for _, t := range k.tagGlob {
		k.tagLocal[t] = -1
	}
}

// compileInterference keeps the directed interference pairs between live
// local readers that can be active together. Two candidates whose conflict
// bits are set both ways are never both in a searched set, so their pair is
// dropped; a pair involving a context reader, or any pair under a nil conf,
// is always kept.
func (k *LocalKernel) compileInterference(sys *System, conf []uint64, confW int) {
	out, in := sys.interAdj()
	k.inOff, k.inDat = k.compileLists(sys, in, conf, confW, k.inOff, k.inDat)
	k.outOff, k.outDat = k.compileLists(sys, out, conf, confW, k.outOff, k.outDat)
}

func (k *LocalKernel) compileLists(sys *System, rel csr, conf []uint64, confW int, off, dat []int32) ([]int32, []int32) {
	off, dat = append(off[:0], 0), dat[:0]
	for l, g := range k.glob {
		if !sys.isDown(int(g)) {
			for _, u := range rel.row(int(g)) {
				lu := k.readerLocal[u]
				if lu < 0 || sys.isDown(int(u)) {
					continue
				}
				if conf != nil && l >= k.nCtx && int(lu) >= k.nCtx && hasBit(conf[int(g)*confW:], int(u)) && hasBit(conf[int(u)*confW:], int(g)) {
					continue
				}
				dat = append(dat, lu)
			}
		}
		off = append(off, int32(len(dat)))
	}
	return off, dat
}

func hasBit(row []uint64, v int) bool { return row[uint(v)>>6]&(1<<(uint(v)&63)) != 0 }

func filled(a []int32, v int32) []int32 {
	for i := range a {
		a[i] = v
	}
	return a
}

// Context returns the deduplicated context as global reader indices; they
// are local readers 0..len(Context())-1. Callers must not mutate it.
func (k *LocalKernel) Context() []int32 { return k.glob[:k.nCtx] }

// Candidates returns the candidates in search order (global indices).
// Callers must not mutate it.
func (k *LocalKernel) Candidates() []int { return k.cand }

// LocalIDs returns, per entry of Candidates, the local reader index to Push.
// Callers must not mutate it.
func (k *LocalKernel) LocalIDs() []int32 { return k.loc }

// Local returns the local index of global reader v: for a candidate, the
// value to Push. It is -1 for a reader that is neither a candidate nor in
// the context.
func (k *LocalKernel) Local(v int) int32 { return k.readerLocal[v] }

// Singles returns, per entry of Candidates, its singleton weight: by
// subadditivity no reader adds more than this to any set. Callers must not
// mutate it.
func (k *LocalKernel) Singles() []int { return k.single }

// BlockRows returns the position-space conflict rows and their stride in
// words: position i's row occupies rows[i*stride:(i+1)*stride], and its bit
// j (always j > i) is set iff Candidates()[j] may not join a set holding
// Candidates()[i]. Callers must not mutate it.
func (k *LocalKernel) BlockRows() ([]uint64, int) { return k.rows, k.rowW }

// CoverCliques returns the clique partition of the positions: clique[i] is
// position i's clique, next[i] the clique's next position after i
// (len(Candidates()) after the last), and heads[c] clique c's first and
// heaviest position. Including any member blocks every later member, so a
// feasible set holds at most one member of each clique. The first call after
// CompileLocal builds the partition, so only a search pays for it, and must
// not race with another. Callers must not mutate the slices.
func (k *LocalKernel) CoverCliques() (clique, next, heads []int32) {
	if !k.parted {
		k.compileCliques()
		k.parted = true
	}
	return k.clique, k.next, k.heads
}

// Eval returns the evaluator over the instance, holding exactly the
// context. It is owned by the kernel and stays valid until Release. Call
// Eval once per compile.
func (k *LocalKernel) Eval() *LocalEval {
	m := len(k.glob)
	e := &k.eval
	e.k = k
	e.once = zeroed(e.once, k.words)
	e.twice = zeroed(e.twice, k.words)
	e.active = zeroed(e.active, m)
	e.rtc = zeroed(e.rtc, m)
	e.pop = 0
	// Each reader is pushed at most once, so these never outgrow one entry
	// per reader (frames, dirty) or per coverage pair (log).
	e.frames = reserved(e.frames, m)
	e.dirty = reserved(e.dirty, m)
	e.log = reserved(e.log, len(k.cov))
	for l := 0; l < k.nCtx; l++ {
		e.Push(int32(l))
	}
	return e
}

// reserved returns a[:0] with capacity for n elements. Fresh storage holds
// at least 64 elements, so the buffers that concurrent solves on different
// kernels write never share a cache line.
func reserved[T any](a []T, n int) []T {
	if cap(a) < n {
		return make([]T, 0, max(n, 64))
	}
	return a[:0]
}

// zeroed returns a zeroed length-n slice on a's storage (see reserved).
func zeroed[T any](a []T, n int) []T {
	a = reserved(a, n)[:n]
	clear(a)
	return a
}

// Release returns the kernel, and every evaluator drawn from it, to the
// pool. Neither may be used afterwards.
func (k *LocalKernel) Release() {
	for _, g := range k.glob {
		k.readerLocal[g] = -1
	}
	k.adj.localPool.Put(k)
}

// LocalEval tracks w(X ∪ ctx) for one searcher over a LocalKernel as local
// readers are pushed and popped in LIFO order.
type LocalEval struct {
	k      *LocalKernel
	once   []uint64 // local tags covered by exactly one active live reader
	twice  []uint64 // local tags covered by two or more
	pop    int      // popcount(once)
	active []bool
	rtc    []int32 // active readers interfering with each active reader
	dirty  []int32 // active readers with rtc > 0
	log    []uint64
	frames []localFrame
}

// localFrame is the undo record of one Push: the pushed reader, the dirty
// stack height and popcount(once) before it. The overwritten once words sit
// on the log, one per coverage pair of the reader.
type localFrame struct {
	v     int32
	dirty int32
	pop   int
}

// Push activates local reader v and returns the new weight. v must not be
// active already (the self bit of a conflict row guarantees this in the
// search).
func (e *LocalEval) Push(v int32) int {
	k := e.k
	e.frames = append(e.frames, localFrame{v: v, dirty: int32(len(e.dirty)), pop: e.pop})
	once, twice := e.once, e.twice
	pop := e.pop
	for _, c := range k.cov[k.covOff[v]:k.covOff[v+1]] {
		o := once[c.w]
		e.log = append(e.log, o)
		t := twice[c.w] | o&c.m
		n := (o | c.m) &^ t
		twice[c.w], once[c.w] = t, n
		pop += bits.OnesCount64(n) - bits.OnesCount64(o)
	}
	e.pop = pop

	e.active[v] = true
	r := int32(0)
	for _, u := range k.inDat[k.inOff[v]:k.inOff[v+1]] {
		if e.active[u] {
			r++
		}
	}
	e.rtc[v] = r
	if r > 0 {
		e.dirty = append(e.dirty, v)
	}
	for _, u := range k.outDat[k.outOff[v]:k.outOff[v+1]] {
		if e.active[u] {
			e.rtc[u]++
			if e.rtc[u] == 1 {
				e.dirty = append(e.dirty, u)
			}
		}
	}
	return e.Weight()
}

// Pop undoes the most recent Push.
func (e *LocalEval) Pop() {
	k := e.k
	f := e.frames[len(e.frames)-1]
	e.frames = e.frames[:len(e.frames)-1]
	v := f.v
	for _, u := range k.outDat[k.outOff[v]:k.outOff[v+1]] {
		if e.active[u] {
			e.rtc[u]--
		}
	}
	e.rtc[v] = 0
	e.active[v] = false
	e.dirty = e.dirty[:f.dirty]

	cov := k.cov[k.covOff[v]:k.covOff[v+1]]
	base := len(e.log) - len(cov)
	once, twice := e.once, e.twice
	for j, c := range cov {
		o := e.log[base+j]
		// o and the old twice word were disjoint, so the bits this push
		// moved into twice are exactly o ∧ mask.
		twice[c.w] &^= o & c.m
		once[c.w] = o
	}
	e.log = e.log[:base]
	e.pop = f.pop
}

// Weight returns w(X ∪ ctx) for the active set X.
func (e *LocalEval) Weight() int {
	w := e.pop
	if len(e.dirty) == 0 {
		return w
	}
	k := e.k
	for _, u := range e.dirty {
		for _, c := range k.cov[k.covOff[u]:k.covOff[u+1]] {
			w -= bits.OnesCount64(e.once[c.w] & c.m)
		}
	}
	return w
}
