package model

import (
	"fmt"
	"math"

	"rfidsched/internal/geom"
)

// System is an immutable deployment (readers + tags + precomputed coverage
// lists) plus the mutable unread-tag state that evolves as a covering
// schedule runs. The geometry never changes after construction; only the
// read/unread flags do. A System is not safe for concurrent mutation; use
// Clone to give each goroutine its own read-state.
type System struct {
	readers []Reader
	tags    []Tag

	// tagsOf.row(i) lists tag indices inside reader i's interrogation
	// region, sorted ascending. readersOf.row(t) lists reader indices whose
	// interrogation region contains tag t, sorted ascending. Both are CSR
	// relations (one flat backing array each) shared by all clones.
	tagsOf    csr
	readersOf csr

	read        []bool
	unreadCount int

	// down marks readers that have failed (crashed hardware, switched off):
	// a down reader neither reads tags nor interferes, and tags only it
	// covers stop counting as coverable. nil means every reader is up. The
	// mask is driven by the fault-injection layers (core.RunMCS repair
	// mode, slotsim) and may change slot to slot.
	down      []bool
	downCount int

	// unreadOf[v] counts the unread tags inside reader v's interrogation
	// region, maintained on MarkRead/ResetReads so SingletonWeight is O(1).
	unreadOf []int32

	// scratch buffers for Weight; see weight.go. clean is the cleanMask
	// scratch: all-false outside a weightAndCovered/Collisions call, so
	// Weight allocates nothing at steady state.
	coverCount []int32
	coverOwner []int32
	touched    []int32
	clean      []bool

	// pooled marks a clone obtained from ClonePooled; Release only recycles
	// such clones (see pool.go).
	pooled bool

	// adj caches interference/coverage adjacency shared by all clones (the
	// geometry is immutable); see adjacency.go.
	adj *adjCache
}

// NewSystem builds a system from readers and tags, precomputing coverage
// lists with a spatial index. Reader and tag IDs are reassigned to their
// slice indices so the rest of the codebase can use indices and IDs
// interchangeably. It returns an error if any reader violates the radius
// invariants.
func NewSystem(readers []Reader, tags []Tag) (*System, error) {
	rs := make([]Reader, len(readers))
	copy(rs, readers)
	for i := range rs {
		rs[i].ID = i
		if err := rs[i].Validate(); err != nil {
			return nil, err
		}
	}
	ts := make([]Tag, len(tags))
	copy(ts, tags)
	// One pass re-IDs the tags and extracts the grid points — the tag slice
	// is the hot construction input (tens of KB), so fusing the passes keeps
	// it in cache.
	pts := make([]geom.Point, len(ts))
	for i := range ts {
		ts[i].ID = i
		pts[i] = ts[i].Pos
	}

	s := &System{
		readers:     rs,
		tags:        ts,
		tagsOf:      emptyCSR(len(rs)),
		readersOf:   emptyCSR(len(ts)),
		read:        make([]bool, len(ts)),
		unreadCount: len(ts),
		unreadOf:    make([]int32, len(rs)),
		adj:         &adjCache{},
	}

	if len(ts) > 0 {
		cell := medianRadius(rs, func(r Reader) float64 { return r.InterrogationR })
		idx := geom.NewSpatialGrid(pts, cell)
		// tagsOf rows are filled in reader order straight into the packed
		// array, in whatever order the grid yields; both relations then come
		// out ascending through transposition alone (the transpose scatter
		// scans rows in order, so ITS rows are ascending — transposing twice
		// sorts every row without a single comparison sort).
		off := make([]int32, len(rs)+1)
		dat := make([]int32, 0, len(ts))
		for i, r := range rs {
			dat = idx.QueryDisk(r.InterrogationDisk(), dat)
			off[i+1] = int32(len(dat))
		}
		s.readersOf = transposeCSR(csr{off: off, dat: dat}, len(ts))
		s.tagsOf = transposeCSR(s.readersOf, len(rs))
		for i := range rs {
			s.unreadOf[i] = int32(s.tagsOf.rowLen(i))
		}
	}
	return s, nil
}

// medianRadius returns the median of the given radius over rs, falling back
// to 1 for degenerate inputs — the cell-size heuristic for both spatial
// grids (tag coverage uses interrogation radii, reader adjacency uses
// interference radii).
func medianRadius(rs []Reader, radius func(Reader) float64) float64 {
	if len(rs) == 0 {
		return 1
	}
	radii := make([]float64, len(rs))
	for i, r := range rs {
		radii[i] = radius(r)
	}
	m := selectKth(radii, len(radii)/2)
	if m <= 0 {
		return 1
	}
	return m
}

// selectKth returns the k-th smallest element of a (0-based), reordering a in
// place: Hoare quickselect with a middle pivot, expected O(n) versus the full
// sort it replaced on the construction path. The k-th order statistic is the
// same value whichever algorithm finds it, so the grid cell sizes — and
// therefore every derived structure — are unchanged.
func selectKth(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		p := a[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return a[k]
		}
	}
	return a[k]
}

// NumReaders returns the number of readers.
func (s *System) NumReaders() int { return len(s.readers) }

// NumTags returns the number of tags.
func (s *System) NumTags() int { return len(s.tags) }

// Reader returns reader i by value.
func (s *System) Reader(i int) Reader { return s.readers[i] }

// Readers returns the reader slice. Callers must not mutate it.
func (s *System) Readers() []Reader { return s.readers }

// Tag returns tag t by value.
func (s *System) Tag(t int) Tag { return s.tags[t] }

// Tags returns the tag slice. Callers must not mutate it.
func (s *System) Tags() []Tag { return s.tags }

// TagsOf returns the sorted indices of tags inside reader i's interrogation
// region (read and unread alike). Callers must not mutate the slice.
func (s *System) TagsOf(i int) []int32 { return s.tagsOf.row(i) }

// ReadersOf returns the sorted indices of readers covering tag t. Callers
// must not mutate the slice.
func (s *System) ReadersOf(t int) []int32 { return s.readersOf.row(t) }

// Independent reports whether readers i and j are independent (Def. 2).
// The answer is a word test against the precomputed independence bitsets
// (built lazily from the interference adjacency, shared by all clones), so
// feasibility pruning loops pay no distance math.
func (s *System) Independent(i, j int) bool {
	row := s.conflictRow(i)
	return row[uint(j)>>6]&(1<<(uint(j)&63)) == 0
}

// IsFeasible reports whether X (reader indices) is a feasible scheduling
// set: pairwise independent per Definition 2. Each pair costs one word-AND
// against the conflict bitsets instead of distance math.
func (s *System) IsFeasible(X []int) bool {
	for a := 0; a < len(X); a++ {
		var row []uint64
		for b := a + 1; b < len(X); b++ {
			if X[a] == X[b] {
				return false // duplicate activation is not a set
			}
			if row == nil {
				row = s.conflictRow(X[a])
			}
			v := uint(X[b])
			if row[v>>6]&(1<<(v&63)) != 0 {
				return false
			}
		}
	}
	return true
}

// IsRead reports whether tag t has already been served.
func (s *System) IsRead(t int) bool { return s.read[t] }

// UnreadCount returns the number of tags not yet served.
func (s *System) UnreadCount() int { return s.unreadCount }

// MarkRead marks tag t as served. Marking an already-read tag is a no-op.
func (s *System) MarkRead(t int) {
	if !s.read[t] {
		s.read[t] = true
		s.unreadCount--
		for _, r := range s.readersOf.row(t) {
			s.unreadOf[r]--
		}
	}
}

// ResetReads marks every tag unread again, e.g. between experiment trials.
func (s *System) ResetReads() {
	for i := range s.read {
		s.read[i] = false
	}
	s.unreadCount = len(s.tags)
	for i := range s.unreadOf {
		s.unreadOf[i] = int32(s.tagsOf.rowLen(i))
	}
}

// SetReaderDown marks reader i as failed (down=true) or restores it. Down
// readers do not transmit: they serve no tags, cause no interference, have
// zero singleton weight, and drop out of coverability counts. The mask is
// how the fault-aware drivers re-plan on the surviving subgraph.
func (s *System) SetReaderDown(i int, down bool) {
	if down && s.down == nil {
		s.down = make([]bool, len(s.readers))
	}
	if s.down == nil || s.down[i] == down {
		return
	}
	s.down[i] = down
	if down {
		s.downCount++
	} else {
		s.downCount--
	}
}

// ReaderDown reports whether reader i is currently marked failed.
func (s *System) ReaderDown(i int) bool { return s.down != nil && s.down[i] }

// DownReaders returns how many readers are currently marked failed.
func (s *System) DownReaders() int { return s.downCount }

// isDown is the hot-path mask check (nil mask = all up).
func (s *System) isDown(i int) bool { return s.down != nil && s.down[i] }

// UnreadCoverableCount returns the number of unread tags that at least one
// live reader can interrogate. Tags outside every interrogation region (or
// covered only by down readers) can never be read; a covering schedule
// terminates when this reaches zero.
func (s *System) UnreadCoverableCount() int {
	n := 0
	for t := range s.tags {
		if s.read[t] {
			continue
		}
		if s.downCount == 0 {
			if s.readersOf.rowLen(t) > 0 {
				n++
			}
			continue
		}
		for _, r := range s.readersOf.row(t) {
			if !s.down[r] {
				n++
				break
			}
		}
	}
	return n
}

// CoverableCount returns the number of tags (read or not) covered by at
// least one reader.
func (s *System) CoverableCount() int {
	n := 0
	for t := range s.tags {
		if s.readersOf.rowLen(t) > 0 {
			n++
		}
	}
	return n
}

// Clone returns a deep copy sharing the immutable geometry (including the
// lazily-built adjacency cache) but owning its own read-state and scratch
// buffers, so clones can run on separate goroutines.
func (s *System) Clone() *System {
	c := &System{
		readers:     s.readers,
		tags:        s.tags,
		tagsOf:      s.tagsOf,
		readersOf:   s.readersOf,
		read:        append([]bool(nil), s.read...),
		unreadCount: s.unreadCount,
		down:        append([]bool(nil), s.down...),
		downCount:   s.downCount,
		unreadOf:    append([]int32(nil), s.unreadOf...),
		adj:         s.adj,
	}
	return c
}

// Bounds returns the bounding box of all readers and tags, expanded by the
// largest interference radius, which is a convenient canvas for the PTAS
// scaling step.
func (s *System) Bounds() geom.Rect {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	maxR := 0.0
	for _, r := range s.readers {
		minX = math.Min(minX, r.Pos.X)
		minY = math.Min(minY, r.Pos.Y)
		maxX = math.Max(maxX, r.Pos.X)
		maxY = math.Max(maxY, r.Pos.Y)
		maxR = math.Max(maxR, r.InterferenceR)
	}
	for _, t := range s.tags {
		minX = math.Min(minX, t.Pos.X)
		minY = math.Min(minY, t.Pos.Y)
		maxX = math.Max(maxX, t.Pos.X)
		maxY = math.Max(maxY, t.Pos.Y)
	}
	if len(s.readers) == 0 && len(s.tags) == 0 {
		return geom.R2(0, 0, 1, 1)
	}
	return geom.R2(minX, minY, maxX, maxY).Expand(maxR)
}

// String implements fmt.Stringer with a one-line summary.
func (s *System) String() string {
	return fmt.Sprintf("System{readers=%d tags=%d unread=%d}", len(s.readers), len(s.tags), s.unreadCount)
}
