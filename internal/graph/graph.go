// Package graph implements the interference graph of Definition 7: one node
// per reader, an edge whenever one reader lies inside the other's
// interference region (equivalently, whenever the two readers are NOT
// independent per Definition 2). Algorithms 2 and 3 operate purely on this
// graph — no geometry — which is exactly the paper's "no location
// information" setting. The package also provides the hop-neighborhood,
// coloring and growth-bound utilities those algorithms and the Colorwave
// baseline need.
package graph

import (
	"fmt"
	"slices"
	"sync"

	"rfidsched/internal/model"
)

// Graph is an undirected simple graph over vertices 0..n-1 with sorted
// adjacency lists. It is immutable after construction and safe for
// concurrent reads.
type Graph struct {
	n   int
	adj [][]int32
	m   int // edge count

	// conf packs the closed neighbourhoods as bitsets, built on first use
	// (see ConflictBits); confW is the row stride in words.
	confOnce sync.Once
	conf     []uint64
	confW    int
}

// New builds a graph over n vertices from an edge list. Self-loops and
// duplicate edges are rejected.
func New(n int, edges [][2]int) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	g := &Graph{n: n, adj: make([][]int32, n)}
	seen := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			return nil, fmt.Errorf("graph: self-loop at %d", u)
		}
		if u < 0 || v < 0 || u >= n || v >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
		}
		key := [2]int{min(u, v), max(u, v)}
		if seen[key] {
			return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
		}
		seen[key] = true
		g.adj[u] = append(g.adj[u], int32(v))
		g.adj[v] = append(g.adj[v], int32(u))
		g.m++
	}
	for _, l := range g.adj {
		slices.Sort(l)
	}
	return g, nil
}

// FromSystem derives the true interference graph of a deployment: an edge
// joins i and j iff they are not independent. This is the graph a perfect
// RF site survey would measure; package survey builds the noisy version.
func FromSystem(sys *model.System) *Graph {
	n := sys.NumReaders()
	g := &Graph{n: n, adj: make([][]int32, n)}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !sys.Independent(i, j) {
				g.adj[i] = append(g.adj[i], int32(j))
				g.adj[j] = append(g.adj[j], int32(i))
				g.m++
			}
		}
	}
	// adjacency built in increasing order; already sorted.
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// MaxDegree returns the maximum degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	d := 0
	for v := 0; v < g.n; v++ {
		if len(g.adj[v]) > d {
			d = len(g.adj[v])
		}
	}
	return d
}

// Neighbors returns the sorted adjacency list of v. Callers must not mutate
// the returned slice.
func (g *Graph) Neighbors(v int) []int32 { return g.adj[v] }

// HasEdge reports whether u and v are adjacent: one bit test against the
// conflict rows. Out-of-range v and u == v report false.
func (g *Graph) HasEdge(u, v int) bool {
	if u == v || uint(v) >= uint(g.n) {
		return false
	}
	conf, w := g.ConflictBits()
	return conf[u*w+(v>>6)]&(1<<(uint(v)&63)) != 0
}

// ConflictBits returns the adjacency matrix packed in the layout of
// model.System.ConflictBits: row v occupies words [v*stride, (v+1)*stride),
// bit u is set iff u and v are adjacent, and the self bit is set (a reader
// conflicts with itself). For FromSystem graphs the matrix equals the
// system's word for word; for survey-estimated graphs it encodes the
// estimated edges only, which is what lets Algorithms 2 and 3 judge
// feasibility from the graph alone. Built on first use; the slice is shared
// and immutable, so callers must not mutate it.
func (g *Graph) ConflictBits() (bits []uint64, stride int) {
	g.confOnce.Do(func() {
		w := (g.n + 63) / 64
		bits := make([]uint64, g.n*w)
		for v, l := range g.adj {
			row := bits[v*w : (v+1)*w]
			row[uint(v)>>6] |= 1 << (uint(v) & 63)
			for _, u := range l {
				row[uint(u)>>6] |= 1 << (uint(u) & 63)
			}
		}
		g.conf, g.confW = bits, w
	})
	return g.conf, g.confW
}

// IsIndependentSet reports whether no two vertices of set are adjacent. In
// the interference graph this is precisely feasibility of a scheduling set.
func (g *Graph) IsIndependentSet(set []int) bool {
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			if set[i] == set[j] || g.HasEdge(set[i], set[j]) {
				return false
			}
		}
	}
	return true
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
