package model

// This file holds the adjacency cache shared by every clone of a System and
// the builders behind it: the directed interference relation, coverage
// adjacency, coupling neighbourhoods and the packed independence bitsets.

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
// The cache also owns the scratch pools (clonePool, localPool): pooling per
// geometry guarantees a recycled clone or local kernel always matches the
// reader/tag counts of the System it is reattached to. See pool.go and
// local.go.
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
// NewSystem; it is also the "first-solve prep" cost cmd/microbench gates.
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
