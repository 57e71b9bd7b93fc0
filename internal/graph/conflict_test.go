package graph

import (
	"slices"
	"sync"
	"testing"

	"rfidsched/internal/geom"
	"rfidsched/internal/model"
	"rfidsched/internal/randx"
)

// randomSystem scatters n readers with a 10x spread of interference radii,
// dense enough that every row has a mix of set and clear bits.
func randomSystem(t *testing.T, n int, seed uint64) *model.System {
	t.Helper()
	rng := randx.New(seed)
	side := 10 + 1.5*float64(n)
	readers := make([]model.Reader, n)
	for i := range readers {
		R := rng.UniformRange(2, 20)
		readers[i] = model.Reader{
			Pos:            geom.Pt(rng.UniformRange(0, side), rng.UniformRange(0, side)),
			InterferenceR:  R,
			InterrogationR: R / 2,
		}
	}
	sys, err := model.NewSystem(readers, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestConflictBitsMatchSystem(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 128} {
		for seed := uint64(1); seed <= 4; seed++ {
			sys := randomSystem(t, n, seed*1000+uint64(n))
			want, wantW := sys.ConflictBits()
			got, gotW := FromSystem(sys).ConflictBits()
			if gotW != wantW || !slices.Equal(got, want) {
				t.Fatalf("n=%d seed=%d: graph conflict matrix (stride %d) differs from the system's (stride %d)", n, seed, gotW, wantW)
			}
		}
	}
}

func TestConflictBitsMatchEdgeList(t *testing.T) {
	rng := randx.New(42)
	for _, n := range []int{1, 2, 63, 64, 65, 130} {
		for trial := 0; trial < 3; trial++ {
			adj := make(map[[2]int]bool)
			var edges [][2]int
			for k := 0; k < 3*n; k++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v || adj[[2]int{u, v}] {
					continue
				}
				adj[[2]int{u, v}], adj[[2]int{v, u}] = true, true
				edges = append(edges, [2]int{u, v})
			}
			g, err := New(n, edges)
			if err != nil {
				t.Fatal(err)
			}
			bits, w := g.ConflictBits()
			if w != (n+63)/64 || len(bits) != n*w {
				t.Fatalf("n=%d: stride %d, %d words", n, w, len(bits))
			}
			for v := 0; v < n; v++ {
				for u := 0; u < w*64; u++ {
					got := bits[v*w+u/64]&(1<<(u%64)) != 0
					want := u == v || adj[[2]int{u, v}]
					if got != want {
						t.Fatalf("n=%d row %d bit %d = %v, edge list says %v", n, v, u, got, want)
					}
					if u < n && g.HasEdge(v, u) != (want && u != v) {
						t.Fatalf("n=%d HasEdge(%d,%d) disagrees with the edge list", n, v, u)
					}
				}
				if g.HasEdge(v, n) || g.HasEdge(v, -1) || g.HasEdge(v, w*64+v) {
					t.Fatalf("n=%d HasEdge accepts an out-of-range vertex", n)
				}
			}
		}
	}
}

// TestConflictBitsConcurrentFirstUse races the lazy build: every caller must
// see the same fully built matrix (run under -race in CI).
func TestConflictBitsConcurrentFirstUse(t *testing.T) {
	g := FromSystem(randomSystem(t, 65, 7))
	var wg sync.WaitGroup
	rows := make([][]uint64, 8)
	for i := range rows {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g.HasEdge(i, 64-i)
			rows[i], _ = g.ConflictBits()
		}(i)
	}
	wg.Wait()
	for i := range rows {
		if &rows[i][0] != &rows[0][0] {
			t.Fatal("concurrent first use built more than one matrix")
		}
	}
}
