package model

import (
	"math"
	"sort"

	"rfidsched/internal/geom"
)

// ReferenceAdjacency is the frozen pre-CSR geometry construction: per-row
// []int32 slices grown by append, closure-based sort.Slice ordering, the
// per-bucket-slice spatial grid (refGrid below), and the O(n²) pairwise
// interference loop. It is kept verbatim as the differential
// baseline — the CSR relations of NewSystem/adjCache must match it element
// for element (that equality is what carries the bit-identical-schedules
// contract across the rebuild) — and as the construction-cost reference
// cmd/microbench measures the grid/kd-tree path against. Not used on any
// production path.
type ReferenceAdjacency struct {
	TagsOf    [][]int32
	ReadersOf [][]int32
	InterOut  [][]int32
	InterIn   [][]int32
	CovAdj    [][]int32
	Nbr       [][]int32
}

// ReferenceCoverage is the frozen pre-CSR NewSystem: defensive copies of the
// input slices, coverage lists as per-row append-grown slices sorted with a
// closure sort.Slice, and the Weight scratch buffers the old constructor
// allocated eagerly (the CSR constructor defers them to first Weight use).
// cmd/microbench times BuildReferenceCoverage as the "what NewSystem cost
// before the rebuild" baseline, so the struct deliberately keeps every
// allocation the old constructor performed.
type ReferenceCoverage struct {
	Readers   []Reader
	Tags      []Tag
	TagsOf    [][]int32
	ReadersOf [][]int32
	Read      []bool
	UnreadOf  []int32

	CoverCount []int32
	CoverOwner []int32
	Touched    []int32
}

// BuildReferenceCoverage replicates the pre-CSR NewSystem verbatim: copy and
// re-ID the inputs, validate radii, build the coverage lists through the
// per-bucket-slice grid with a full sort of the interrogation radii for the
// cell size, and allocate the eager Weight scratch.
func BuildReferenceCoverage(readers []Reader, tags []Tag) (*ReferenceCoverage, error) {
	rs := make([]Reader, len(readers))
	copy(rs, readers)
	ts := make([]Tag, len(tags))
	copy(ts, tags)
	for i := range rs {
		rs[i].ID = i
		if err := rs[i].Validate(); err != nil {
			return nil, err
		}
	}
	for i := range ts {
		ts[i].ID = i
	}
	n := len(rs)
	ref := &ReferenceCoverage{
		Readers:    rs,
		Tags:       ts,
		TagsOf:     make([][]int32, n),
		ReadersOf:  make([][]int32, len(ts)),
		Read:       make([]bool, len(ts)),
		UnreadOf:   make([]int32, n),
		CoverCount: make([]int32, len(ts)),
		CoverOwner: make([]int32, len(ts)),
		Touched:    make([]int32, 0, len(ts)),
	}
	if len(ts) > 0 {
		pts := make([]geom.Point, len(ts))
		for i, t := range ts {
			pts[i] = t.Pos
		}
		radii := make([]float64, n)
		for i, r := range rs {
			radii[i] = r.InterrogationR
		}
		sort.Float64s(radii)
		cell := 1.0
		if n > 0 {
			if m := radii[n/2]; m > 0 {
				cell = m
			}
		}
		idx := newRefGrid(pts, cell)
		for i, r := range rs {
			covered := idx.QueryDisk(r.InterrogationDisk(), nil)
			sort.Slice(covered, func(a, b int) bool { return covered[a] < covered[b] })
			ref.TagsOf[i] = covered
			for _, t := range covered {
				ref.ReadersOf[t] = append(ref.ReadersOf[t], int32(i))
			}
		}
		for i := range rs {
			ref.UnreadOf[i] = int32(len(ref.TagsOf[i]))
		}
	}
	return ref, nil
}

// BuildReferenceAdjacency runs the pre-CSR construction over readers and
// tags: the coverage lists exactly as the old NewSystem built them
// (BuildReferenceCoverage), then the interference/coverage/coupling
// adjacency exactly as the old first solve built them lazily.
func BuildReferenceAdjacency(readers []Reader, tags []Tag) *ReferenceAdjacency {
	n := len(readers)
	cov, err := BuildReferenceCoverage(readers, tags)
	if err != nil {
		panic(err)
	}
	ref := &ReferenceAdjacency{
		TagsOf:    cov.TagsOf,
		ReadersOf: cov.ReadersOf,
		InterOut:  make([][]int32, n),
		InterIn:   make([][]int32, n),
		CovAdj:    make([][]int32, n),
		Nbr:       make([][]int32, n),
	}

	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && readers[u].Interferes(readers[v]) {
				ref.InterOut[u] = append(ref.InterOut[u], int32(v))
				ref.InterIn[v] = append(ref.InterIn[v], int32(u))
			}
		}
	}

	stamp := make([]int, n)
	for i := range stamp {
		stamp[i] = -1
	}
	for u := 0; u < n; u++ {
		for _, t := range ref.TagsOf[u] {
			for _, v := range ref.ReadersOf[t] {
				if int(v) != u && stamp[v] != u {
					stamp[v] = u
					ref.CovAdj[u] = append(ref.CovAdj[u], v)
				}
			}
		}
		sort.Slice(ref.CovAdj[u], func(a, b int) bool { return ref.CovAdj[u][a] < ref.CovAdj[u][b] })
	}

	seen := make([]int, n)
	for i := range seen {
		seen[i] = -1
	}
	for u := 0; u < n; u++ {
		for _, lst := range [][]int32{ref.InterOut[u], ref.InterIn[u], ref.CovAdj[u]} {
			for _, w := range lst {
				if seen[w] != u {
					seen[w] = u
					ref.Nbr[u] = append(ref.Nbr[u], w)
				}
			}
		}
		sort.Slice(ref.Nbr[u], func(a, b int) bool { return ref.Nbr[u][a] < ref.Nbr[u][b] })
	}
	return ref
}

// refGrid is the frozen pre-CSR uniform grid: per-bucket []int32 slices
// grown by append. geom.SpatialGrid has since moved to a flat CSR bucket
// layout; this copy pins the construction cost cmd/microbench measures
// against.
type refGrid struct {
	cell    float64
	minX    float64
	minY    float64
	cols    int
	rows    int
	points  []geom.Point
	buckets [][]int32
}

func newRefGrid(pts []geom.Point, cell float64) *refGrid {
	if cell <= 0 {
		cell = 1
	}
	g := &refGrid{cell: cell, points: pts}
	if len(pts) == 0 {
		g.cols, g.rows = 1, 1
		g.buckets = make([][]int32, 1)
		return g
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range pts {
		minX = math.Min(minX, p.X)
		minY = math.Min(minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	g.minX, g.minY = minX, minY
	g.cols = int((maxX-minX)/cell) + 1
	g.rows = int((maxY-minY)/cell) + 1
	g.buckets = make([][]int32, g.cols*g.rows)
	for i, p := range pts {
		col := int((p.X - g.minX) / g.cell)
		row := int((p.Y - g.minY) / g.cell)
		if col < 0 {
			col = 0
		} else if col >= g.cols {
			col = g.cols - 1
		}
		if row < 0 {
			row = 0
		} else if row >= g.rows {
			row = g.rows - 1
		}
		c := row*g.cols + col
		g.buckets[c] = append(g.buckets[c], int32(i))
	}
	return g
}

func (g *refGrid) QueryDisk(d geom.Disk, dst []int32) []int32 {
	if len(g.points) == 0 {
		return dst
	}
	c0 := int(math.Floor((d.Center.X - d.R - g.minX) / g.cell))
	c1 := int(math.Floor((d.Center.X + d.R - g.minX) / g.cell))
	r0 := int(math.Floor((d.Center.Y - d.R - g.minY) / g.cell))
	r1 := int(math.Floor((d.Center.Y + d.R - g.minY) / g.cell))
	if c0 < 0 {
		c0 = 0
	}
	if r0 < 0 {
		r0 = 0
	}
	if c1 >= g.cols {
		c1 = g.cols - 1
	}
	if r1 >= g.rows {
		r1 = g.rows - 1
	}
	rr := d.R * d.R
	for row := r0; row <= r1; row++ {
		base := row * g.cols
		for col := c0; col <= c1; col++ {
			for _, idx := range g.buckets[base+col] {
				if g.points[idx].Dist2(d.Center) <= rr {
					dst = append(dst, idx)
				}
			}
		}
	}
	return dst
}
