package model

// This file implements WeightEval, the incremental weight evaluator. The
// brute-force Weight of weight.go recomputes coverage for the whole
// activation set on every call — O(|X|·deg) per evaluation — which every
// scheduler pays inside enumeration loops. WeightEval instead maintains the
// quantities Weight is defined over as counters that are patched when one
// reader enters or leaves the set:
//
//   - coverCount[t]: active live readers whose interrogation region holds t
//   - coverSum[t]:   sum of those reader indices, so when coverCount[t]==1
//     the owning reader is just coverSum[t] (no owner array to maintain)
//   - single[v]:     unread tags t with coverCount[t]==1 owned by v
//   - rtc[v]:        active live readers u != v whose interference disk
//     contains v (v is clean iff rtc[v]==0)
//   - weight:        Σ single[v] over active live readers with rtc[v]==0,
//     which is exactly w(X) of Definition 3
//
// Add(v)/Remove(v) therefore cost O(|tagsOf(v)| + |interference nbrs of v|)
// and Weight() is O(1). MarginalGain(v) is an Add/Remove pair, O(Δ).
//
// Read-state and fault churn are folded in through observer hooks: the
// evaluator registers with its System at construction, and MarkRead,
// ResetReads and SetReaderDown notify every attached evaluator so the
// counters track the live system without polling. Close() detaches.
//
// The evaluator is differentially tested against weightAndCovered and the
// determinism contract of DESIGN.md §9 holds: for any activation set it
// reports bit-identical weights to the brute force, so schedulers that
// switch to it produce byte-identical schedules.

import (
	"slices"
	"sync"

	"rfidsched/internal/geom"
)

// adjCache holds lazily-built, immutable adjacency structure shared by every
// clone of a System (the geometry never changes after construction, so the
// cache is built once under sync.Once and read concurrently afterwards).
// Every relation is CSR (see csr.go); rows are ascending, matching the
// historical [][]int32 layout element for element.
//
// The cache also owns the scratch pools (clonePool, evalPool, localPool):
// pooling per geometry guarantees a recycled clone, evaluator or local
// kernel always matches the reader/tag counts of the System it is
// reattached to. See pool.go and local.go.
type adjCache struct {
	interOnce sync.Once
	interOut  csr // interOut.row(u): v != u with reader u's interference disk containing v
	interIn   csr // interIn.row(v):  u != v whose interference disk contains v

	covOnce sync.Once
	covAdj  csr // covAdj.row(u): v != u sharing at least one covered tag with u

	nbrOnce sync.Once
	nbr     csr // union of interOut ∪ interIn ∪ covAdj, sorted

	// conflict packs, per reader u, the bitset of readers NOT independent
	// from u (Def. 2), one row of conflictW words each; bit u of row u is
	// set (a reader is never independent from itself). Independence is the
	// complement of interference-in-either-direction, so the bitsets are
	// derived from interOut ∪ interIn in O(edges) — no extra distance math.
	conflictOnce sync.Once
	conflictW    int
	conflict     []uint64
	// sweepBits, when non-nil, holds outBits|inBits per reader as stashed
	// by sweepInterAdj — the conflict build then ORs in the self bits
	// instead of re-walking the adjacency rows.
	sweepBits []uint64

	clonePool sync.Pool // *System clones of this geometry (pool.go)
	evalPool  sync.Pool // *WeightEval sized for this geometry (pool.go)
	localPool sync.Pool // *LocalKernel sized for this geometry (local.go)
}

// Adjacency-construction strategy cutoffs. Below adjBruteReaders the O(n²)
// pairwise scan wins outright (no index to build, no sort). Above it a
// spatial index makes construction near-linear: the uniform grid keyed on
// the median interference radius, unless the largest radius dwarfs the
// median by more than adjRadiusSpread — then a median-radius cell grid
// degenerates into near-full scans per query and the kd-tree, whose depth
// adapts to the data rather than to a cell size, takes over.
const (
	adjBruteReaders = 48
	adjSweepReaders = 1024
	adjRadiusSpread = 16.0
)

// diskIndex is the common query surface of geom.SpatialGrid and geom.KDTree.
type diskIndex interface {
	QueryDisk(d geom.Disk, dst []int32) []int32
}

// buildInterAdj constructs the directed interference adjacency of rs in CSR
// form. All four strategies produce identical relations (same predicate —
// Reader.Interferes compares the same squared distances — and rows sorted
// ascending); only the construction cost differs. Tiny systems brute-force
// the pairwise scan; extreme radius spreads go to the kd-tree; mid-size
// systems use a plane sweep (cheapest at paper scale — no index to build);
// very large uniform systems use the spatial grid.
// buildInterAdjBits is buildInterAdj plus, on the sweep path, the combined
// interference bitsets (outBits|inBits per reader) the sweep accumulates
// anyway — conflictRow turns them into the conflict matrix with one OR of
// the self bit per reader instead of re-walking the CSR rows.
func buildInterAdjBits(rs []Reader) (out, in csr, bits []uint64) {
	n := len(rs)
	if n >= adjBruteReaders {
		maxR, med := 0.0, medianRadius(rs, func(r Reader) float64 { return r.InterferenceR })
		for _, r := range rs {
			if r.InterferenceR > maxR {
				maxR = r.InterferenceR
			}
		}
		if maxR <= adjRadiusSpread*med && n <= adjSweepReaders {
			return sweepInterAdj(rs)
		}
	}
	out, in = buildInterAdj(rs)
	return out, in, nil
}

func buildInterAdj(rs []Reader) (out, in csr) {
	n := len(rs)
	if n < adjBruteReaders {
		off := make([]int32, n+1)
		var dat []int32
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rs[u].Interferes(rs[v]) {
					dat = append(dat, int32(v))
				}
			}
			off[u+1] = int32(len(dat))
		}
		out = csr{off: off, dat: dat}
		return out, transposeCSR(out, n)
	}

	pts := make([]geom.Point, n)
	maxR := 0.0
	for i, r := range rs {
		pts[i] = r.Pos
		if r.InterferenceR > maxR {
			maxR = r.InterferenceR
		}
	}
	med := medianRadius(rs, func(r Reader) float64 { return r.InterferenceR })
	if maxR <= adjRadiusSpread*med && n <= adjSweepReaders {
		out, in, _ := sweepInterAdj(rs)
		return out, in
	}
	var idx diskIndex
	if maxR > adjRadiusSpread*med {
		idx = geom.NewKDTree(pts)
	} else {
		idx = geom.NewSpatialGrid(pts, med)
	}

	// Rows are packed in whatever order the index yields (minus the self
	// hit); two transposes then deliver both directions with ascending rows
	// and no comparison sort (see NewSystem).
	off := make([]int32, n+1)
	var dat []int32
	var buf []int32
	for u := 0; u < n; u++ {
		buf = idx.QueryDisk(rs[u].InterferenceDisk(), buf[:0])
		for _, v := range buf {
			if int(v) != u {
				dat = append(dat, v)
			}
		}
		off[u+1] = int32(len(dat))
	}
	in = transposeCSR(csr{off: off, dat: dat}, n)
	out = transposeCSR(in, n)
	return out, in
}

// sweepInterAdj builds the interference adjacency by a plane sweep: readers
// sorted by x, each scanned rightward until the x-gap exceeds both its own
// radius and the suffix maximum of the remaining radii (past that point no
// pair can interfere in either direction, whatever the boundary semantics,
// since the x-gap alone exceeds every radius involved). Each surviving pair
// is classified with the same Reader.Interferes predicate as the other
// strategies; hits are accumulated in per-reader bitsets, which expand into
// ascending CSR rows directly — no spatial index, no transpose, no sort
// beyond the initial 1-d ordering.
func sweepInterAdj(rs []Reader) (out, in csr, bits []uint64) {
	n := len(rs)
	w := (n + 63) / 64
	ord := make([]int32, n)
	for i := range ord {
		ord[i] = int32(i)
	}
	slices.SortFunc(ord, func(a, b int32) int {
		xa, xb := rs[a].Pos.X, rs[b].Pos.X
		switch {
		case xa < xb:
			return -1
		case xa > xb:
			return 1
		}
		return 0
	})
	// Coordinates, radii, and squared radii packed in sweep order so the
	// inner loop walks flat arrays instead of loading Reader structs. The
	// pair test is the Interferes predicate verbatim — one shared
	// Pos.Dist2 compared against each side's InterferenceR² — so the
	// relation is bit-identical to the other strategies.
	xs := make([]float64, n)
	ys := make([]float64, n)
	r2s := make([]float64, n)
	sufR := make([]float64, n+1)
	for i, u := range ord {
		r := rs[u]
		xs[i] = r.Pos.X
		ys[i] = r.Pos.Y
		r2s[i] = r.InterferenceR * r.InterferenceR
	}
	for i := n - 1; i >= 0; i-- {
		r := rs[ord[i]].InterferenceR
		if r < sufR[i+1] {
			r = sufR[i+1]
		}
		sufR[i] = r
	}
	outBits := make([]uint64, n*w)
	inBits := make([]uint64, n*w)
	for i := 0; i < n; i++ {
		u := int(ord[i])
		xu, yu := xs[i], ys[i]
		ru, ru2 := rs[u].InterferenceR, r2s[i]
		for j := i + 1; j < n; j++ {
			dx := xs[j] - xu
			if dx > ru && dx > sufR[j] {
				break
			}
			dy := ys[j] - yu
			d2 := dx*dx + dy*dy
			if d2 <= ru2 {
				v := int(ord[j])
				outBits[u*w+(v>>6)] |= 1 << (uint(v) & 63)
				inBits[v*w+(u>>6)] |= 1 << (uint(u) & 63)
			}
			if d2 <= r2s[j] {
				v := int(ord[j])
				outBits[v*w+(u>>6)] |= 1 << (uint(u) & 63)
				inBits[u*w+(v>>6)] |= 1 << (uint(v) & 63)
			}
		}
	}
	offO := make([]int32, n+1)
	offI := make([]int32, n+1)
	var datO, datI []int32
	for u := 0; u < n; u++ {
		datO = appendBits(datO, outBits[u*w:(u+1)*w])
		offO[u+1] = int32(len(datO))
		datI = appendBits(datI, inBits[u*w:(u+1)*w])
		offI[u+1] = int32(len(datI))
	}
	// outBits is free after expansion: fold inBits in and hand the union
	// to the caller for the conflict cache.
	for i := range outBits {
		outBits[i] |= inBits[i]
	}
	return csr{off: offO, dat: datO}, csr{off: offI, dat: datI}, outBits
}

// interAdj returns the directed interference adjacency (built on first use).
func (s *System) interAdj() (out, in csr) {
	c := s.adj
	c.interOnce.Do(func() {
		c.interOut, c.interIn, c.sweepBits = buildInterAdjBits(s.readers)
	})
	return c.interOut, c.interIn
}

// coverageAdj returns, per reader, the readers sharing at least one covered
// tag (built on first use).
func (s *System) coverageAdj() csr {
	c := s.adj
	c.covOnce.Do(func() {
		// Accumulate each row in a small bitset and expand it with
		// trailing-zeros iteration: bits come out in ascending index order,
		// so the row is born sorted — no stamp array, no comparison sort,
		// no transpose.
		n := len(s.readers)
		w := (n + 63) / 64
		row := make([]uint64, w)
		off := make([]int32, n+1)
		var dat []int32
		tOff, tDat := s.tagsOf.off, s.tagsOf.dat
		rOff, rDat := s.readersOf.off, s.readersOf.dat
		for u := 0; u < n; u++ {
			for i := range row {
				row[i] = 0
			}
			for _, t := range tDat[tOff[u]:tOff[u+1]] {
				for _, v := range rDat[rOff[t]:rOff[t+1]] {
					row[uint(v)>>6] |= 1 << (uint(v) & 63)
				}
			}
			row[uint(u)>>6] &^= 1 << (uint(u) & 63)
			dat = appendBits(dat, row)
			off[u+1] = int32(len(dat))
		}
		c.covAdj = csr{off: off, dat: dat}
	})
	return c.covAdj
}

// conflictRow returns reader u's conflict bitset (built on first use): bit v
// set iff u and v are NOT independent. Callers must not mutate the row.
func (s *System) conflictRow(u int) []uint64 {
	c := s.adj
	c.conflictOnce.Do(func() {
		out, in := s.interAdj()
		n := len(s.readers)
		w := (n + 63) / 64
		c.conflictW = w
		if c.sweepBits != nil {
			for v := 0; v < n; v++ {
				c.sweepBits[v*w+(v>>6)] |= 1 << (uint(v) & 63)
			}
			c.conflict, c.sweepBits = c.sweepBits, nil
			return
		}
		bits := make([]uint64, n*w)
		for v := 0; v < n; v++ {
			row := bits[v*w : (v+1)*w]
			row[uint(v)>>6] |= 1 << (uint(v) & 63)
			for _, x := range out.row(v) {
				row[uint(x)>>6] |= 1 << (uint(x) & 63)
			}
			for _, x := range in.row(v) {
				row[uint(x)>>6] |= 1 << (uint(x) & 63)
			}
		}
		c.conflict = bits
	})
	return c.conflict[u*c.conflictW : (u+1)*c.conflictW]
}

// ConflictBits exposes the packed independence bitsets for feasibility fast
// paths (mwfs block rows, the PTAS augmentation, channel assignment):
// reader v's row occupies words [v*stride, (v+1)*stride), bit u set iff v
// and u are NOT independent. The slice is shared and immutable; callers
// must not mutate it.
func (s *System) ConflictBits() (bits []uint64, stride int) {
	s.conflictRow(0)
	return s.adj.conflict, s.adj.conflictW
}

// WarmAdjacency forces every lazily-built shared structure — interference
// adjacency, coverage adjacency, coupling neighborhoods, and independence
// bitsets — so later solves (and clones, which share the cache) never pay a
// first-use construction stall. Serving layers call this right after
// NewSystem; it is also the "first-solve prep" cost cmd/corebench gates.
func (s *System) WarmAdjacency() {
	if len(s.readers) == 0 {
		return
	}
	s.interAdj()
	s.coverageAdj()
	s.CouplingNeighbors(0)
	s.conflictRow(0)
}

// CouplingNeighbors returns the readers whose membership in an activation
// set can change reader v's marginal weight (and vice versa): interference
// in either direction, or a shared covered tag. The marginal weight of v
// depends only on system state within this 1-hop coupling ball, so adding a
// reader u can change w(X ∪ {v}) − w(X) only when u is within two coupling
// hops of v — the invariant the lazy gain queue in package baseline builds
// its invalidation sets from. The returned slice is shared and sorted;
// callers must not mutate it.
func (s *System) CouplingNeighbors(v int) []int32 {
	c := s.adj
	c.nbrOnce.Do(func() {
		// The conflict bitsets already hold interOut ∪ interIn ∪ {self};
		// OR in the coverage row, drop the self bit, and expand — same
		// born-sorted trailing-zeros trick as coverageAdj.
		s.conflictRow(0)
		cov := s.coverageAdj()
		n := len(s.readers)
		w := c.conflictW
		row := make([]uint64, w)
		off := make([]int32, n+1)
		dat := make([]int32, 0, len(c.interOut.dat)+len(c.interIn.dat)+len(cov.dat))
		for u := 0; u < n; u++ {
			copy(row, c.conflict[u*w:(u+1)*w])
			for _, v := range cov.row(u) {
				row[uint(v)>>6] |= 1 << (uint(v) & 63)
			}
			row[uint(u)>>6] &^= 1 << (uint(u) & 63)
			dat = appendBits(dat, row)
			off[u+1] = int32(len(dat))
		}
		c.nbr = csr{off: off, dat: dat}
	})
	return c.nbr.row(v)
}

// WeightEval incrementally evaluates w(X) for a dynamically maintained
// activation set X over a System. Construct with NewWeightEval, mutate the
// set with Add/Remove, and read Weight()/MarginalGain(v) in O(1)/O(Δ). The
// evaluator observes the System's MarkRead/ResetReads/SetReaderDown
// transitions automatically; call Close when done so the System stops
// notifying it.
//
// Like the System itself, a WeightEval is not safe for concurrent use.
type WeightEval struct {
	sys *System

	active     []bool
	activePos  []int32 // index into activeList, -1 when inactive
	activeList []int

	coverCount []int32
	coverSum   []int32
	single     []int32
	rtc        []int32
	weight     int

	interOut csr
	interIn  csr

	// pooled marks an evaluator from NewPooledWeightEval; Close recycles it
	// into its geometry's evalPool (see pool.go).
	pooled bool

	closed bool
}

// NewWeightEval builds an evaluator with an empty activation set and
// attaches it to sys. The interference adjacency is cached on the System, so
// constructing many short-lived evaluators (as the branch-and-bound solver
// does) costs O(readers + tags) each, not O(readers²).
func NewWeightEval(sys *System) *WeightEval {
	out, in := sys.interAdj()
	e := &WeightEval{
		sys:        sys,
		active:     make([]bool, len(sys.readers)),
		activePos:  make([]int32, len(sys.readers)),
		coverCount: make([]int32, len(sys.tags)),
		coverSum:   make([]int32, len(sys.tags)),
		single:     make([]int32, len(sys.readers)),
		rtc:        make([]int32, len(sys.readers)),
		interOut:   out,
		interIn:    in,
	}
	for i := range e.activePos {
		e.activePos[i] = -1
	}
	sys.attach(e)
	return e
}

// Close detaches the evaluator from its System. For a plain evaluator,
// using the counters afterwards is safe only while the System's read/down
// state does not change. A pooled evaluator (NewPooledWeightEval) is
// instead drained and recycled — it must not be touched at all after
// Close. Closing is idempotent.
func (e *WeightEval) Close() {
	if e.closed {
		return
	}
	if e.pooled {
		e.closePooled()
		return
	}
	e.closed = true
	e.sys.detach(e)
}

// Weight returns w(X) for the current activation set in O(1).
func (e *WeightEval) Weight() int { return e.weight }

// Len returns |X|.
func (e *WeightEval) Len() int { return len(e.activeList) }

// Active reports whether reader v is in the current set.
func (e *WeightEval) Active(v int) bool {
	return v >= 0 && v < len(e.active) && e.active[v]
}

// AppendActive appends the current activation set to dst in ascending order.
func (e *WeightEval) AppendActive(dst []int) []int {
	start := len(dst)
	dst = append(dst, e.activeList...)
	slices.Sort(dst[start:])
	return dst
}

// Add inserts reader v into the activation set. Out-of-range and already
// active readers are no-ops returning false. A down reader joins the set but
// contributes nothing until it recovers, mirroring the brute-force Weight.
func (e *WeightEval) Add(v int) bool {
	if v < 0 || v >= len(e.active) || e.active[v] {
		return false
	}
	e.active[v] = true
	e.activePos[v] = int32(len(e.activeList))
	e.activeList = append(e.activeList, v)
	if !e.sys.isDown(v) {
		e.addEffective(v)
	}
	return true
}

// Remove deletes reader v from the activation set; false if it wasn't in it.
func (e *WeightEval) Remove(v int) bool {
	if v < 0 || v >= len(e.active) || !e.active[v] {
		return false
	}
	if !e.sys.isDown(v) {
		e.removeEffective(v)
	}
	e.active[v] = false
	pos := e.activePos[v]
	last := len(e.activeList) - 1
	moved := e.activeList[last]
	e.activeList[pos] = moved
	e.activePos[moved] = pos
	e.activeList = e.activeList[:last]
	e.activePos[v] = -1
	return true
}

// MarginalGain returns w(X ∪ {v}) − w(X) in O(Δ) without changing the set.
// An already-active (or invalid) v gains nothing.
func (e *WeightEval) MarginalGain(v int) int {
	before := e.weight
	if !e.Add(v) {
		return 0
	}
	g := e.weight - before
	e.Remove(v)
	return g
}

// Reset empties the activation set.
func (e *WeightEval) Reset() {
	for len(e.activeList) > 0 {
		e.Remove(e.activeList[len(e.activeList)-1])
	}
}

// addEffective folds an active, live reader v into the counters. The order
// matters: the tag loop charges coverage changes against the *current* clean
// statuses, the interference loop then re-prices readers v un-cleans with
// their already-updated single counts, and finally v's own tags count iff v
// ended up clean.
func (e *WeightEval) addEffective(v int) {
	read := e.sys.read
	for _, t := range e.sys.tagsOf.row(v) {
		old := e.coverCount[t]
		prev := e.coverSum[t]
		e.coverCount[t] = old + 1
		e.coverSum[t] = prev + int32(v)
		if read[t] {
			continue
		}
		switch old {
		case 0:
			e.single[v]++
		case 1:
			e.single[prev]--
			if e.rtc[prev] == 0 {
				e.weight--
			}
		}
	}
	rtcV := int32(0)
	for _, u := range e.interIn.row(v) {
		if e.active[u] && !e.sys.isDown(int(u)) {
			rtcV++
		}
	}
	e.rtc[v] = rtcV
	for _, u := range e.interOut.row(v) {
		if e.active[u] && !e.sys.isDown(int(u)) {
			e.rtc[u]++
			if e.rtc[u] == 1 {
				e.weight -= int(e.single[u])
			}
		}
	}
	if rtcV == 0 {
		e.weight += int(e.single[v])
	}
}

// removeEffective is the exact inverse of addEffective (reverse order).
func (e *WeightEval) removeEffective(v int) {
	if e.rtc[v] == 0 {
		e.weight -= int(e.single[v])
	}
	e.rtc[v] = 0
	for _, u := range e.interOut.row(v) {
		if e.active[u] && !e.sys.isDown(int(u)) {
			e.rtc[u]--
			if e.rtc[u] == 0 {
				e.weight += int(e.single[u])
			}
		}
	}
	read := e.sys.read
	for _, t := range e.sys.tagsOf.row(v) {
		e.coverCount[t]--
		e.coverSum[t] -= int32(v)
		if read[t] {
			continue
		}
		switch e.coverCount[t] {
		case 0:
			e.single[v]--
		case 1:
			owner := e.coverSum[t]
			e.single[owner]++
			if e.rtc[owner] == 0 {
				e.weight++
			}
		}
	}
}

// onTagRead is the System's MarkRead hook (called after the unread→read
// transition): a singly-covered tag stops crediting its owner.
func (e *WeightEval) onTagRead(t int) {
	if e.coverCount[t] == 1 {
		owner := e.coverSum[t]
		e.single[owner]--
		if e.rtc[owner] == 0 {
			e.weight--
		}
	}
}

// onResetReads rebuilds the unread-dependent counters after ResetReads;
// coverage and interference counters are read-state independent and stand.
func (e *WeightEval) onResetReads() {
	for i := range e.single {
		e.single[i] = 0
	}
	for t, c := range e.coverCount {
		if c == 1 {
			e.single[e.coverSum[t]]++
		}
	}
	e.weight = 0
	for _, v := range e.activeList {
		if !e.sys.isDown(v) && e.rtc[v] == 0 {
			e.weight += int(e.single[v])
		}
	}
}

// onReaderDown is the System's SetReaderDown hook (called after the mask
// transition). A down reader in the set behaves exactly as if removed —
// serves nothing, interferes with nothing — while keeping its membership, so
// recovery restores its contribution.
func (e *WeightEval) onReaderDown(v int, down bool) {
	if v < 0 || v >= len(e.active) || !e.active[v] {
		return
	}
	if down {
		e.removeEffective(v)
	} else {
		e.addEffective(v)
	}
}
