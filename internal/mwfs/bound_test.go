package mwfs

import (
	"slices"
	"testing"

	"rfidsched/internal/deploy"
	"rfidsched/internal/geom"
	"rfidsched/internal/graph"
	"rfidsched/internal/model"
	"rfidsched/internal/randx"
)

// Differential tests for the clique-cover bound: on instances small enough
// to enumerate, both scoring paths (kernel and BruteForce) must return the
// first maximum of an unpruned include-first enumeration, whose feasibility
// test reads the conflict matrix directly.

// boundCase is one randomized instance: at most 14 candidates, with
// duplicate and out-of-range entries, a context, read tags, down readers and
// a conflict matrix that is geometric, symmetric with dropped pairs, or
// asymmetric.
type boundCase struct {
	sys   *model.System
	cands []int
	ctx   []int
	conf  []uint64 // nil: the system's geometric matrix
}

func genBoundCase(t *testing.T, seed uint64, readers, tags, shape uint8) boundCase {
	t.Helper()
	rng := randx.New(seed)
	n := 6 + int(readers)%9
	sys := randomSystem(t, seed, n, 10+int(tags)%120)
	for tg := 0; tg < sys.NumTags(); tg++ {
		if rng.Bool(0.2) {
			sys.MarkRead(tg)
		}
	}
	for v := 0; v < n; v++ {
		if rng.Bool(0.12) {
			sys.SetReaderDown(v, true)
		}
	}

	var c boundCase
	c.sys = sys
	for v := 0; v < n; v++ {
		switch {
		case rng.Bool(0.8):
			c.cands = append(c.cands, v)
			if rng.Bool(0.1) {
				c.cands = append(c.cands, v) // duplicate candidate
			}
		case rng.Bool(0.5):
			c.ctx = append(c.ctx, v)
			if rng.Bool(0.3) {
				c.ctx = append(c.ctx, v) // duplicate context entry
			}
		}
	}
	if rng.Bool(0.3) {
		c.cands = append(c.cands, -1, n) // out of range: ignored
	}
	if len(c.ctx) > 0 && rng.Bool(0.3) {
		c.cands = append(c.cands, c.ctx[0]) // committed already: dropped
	}
	rng.Shuffle(len(c.cands), func(i, j int) { c.cands[i], c.cands[j] = c.cands[j], c.cands[i] })
	for len(c.cands) > 14 {
		c.cands = c.cands[:14]
	}

	geo, w := sys.ConflictBits()
	switch shape % 3 {
	case 1: // survey-style: drop geometric pairs both ways
		c.conf = slices.Clone(geo)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Bool(0.4) {
					c.conf[u*w+v>>6] &^= 1 << (uint(v) & 63)
					c.conf[v*w+u>>6] &^= 1 << (uint(u) & 63)
				}
			}
		}
	case 2: // flooded records: flip single directions, keep self bits
		c.conf = slices.Clone(geo)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Bool(0.25) {
					c.conf[u*w+v>>6] ^= 1 << (uint(v) & 63)
				}
			}
		}
	}
	return c
}

// enumerate is the oracle: an unpruned include-first DFS over the search
// order, where cand[j] may join iff its conflict row holds no member of the
// set, keeping the first strictly heavier set.
func (c boundCase) enumerate() (set []int, weight int) {
	conf, w := c.sys.ConflictBits()
	if c.conf != nil {
		conf = c.conf
	}
	n := c.sys.NumReaders()
	inCtx := map[int]bool{}
	var ctx []int
	for _, v := range c.ctx {
		if v >= 0 && v < n && !inCtx[v] {
			inCtx[v] = true
			ctx = append(ctx, v)
		}
	}
	var order []int
	for _, v := range c.cands {
		if v >= 0 && v < n && !inCtx[v] {
			order = append(order, v)
		}
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if d := c.sys.SingletonWeight(b) - c.sys.SingletonWeight(a); d != 0 {
			return d
		}
		return a - b
	})
	ctxW := c.sys.Weight(ctx)
	bestW := 0
	var best, cur []int
	var rec func(i int)
	rec = func(i int) {
		if m := c.sys.Weight(append(slices.Clone(cur), ctx...)) - ctxW; m > bestW {
			bestW, best = m, slices.Clone(cur)
		}
		for j := i; j < len(order); j++ {
			v := order[j]
			ok := true
			for _, u := range cur {
				if conf[v*w+u>>6]&(1<<(uint(u)&63)) != 0 {
					ok = false
					break
				}
			}
			if ok {
				cur = append(cur, v)
				rec(j + 1)
				cur = cur[:len(cur)-1]
			}
		}
	}
	rec(0)
	slices.Sort(best)
	return best, bestW
}

// checkBoundCase fails t unless every engine matches the enumeration.
func checkBoundCase(t *testing.T, c boundCase, what string) {
	t.Helper()
	wantSet, wantW := c.enumerate()
	want := Result{Set: wantSet, Weight: wantW, Exact: true}
	if want.Set == nil {
		want.Set = []int{}
	}
	opts := Options{Context: c.ctx, Conflicts: c.conf}
	inc := Solve(c.sys, c.cands, opts)
	opts.BruteForce = true
	brute := Solve(c.sys, c.cands, opts)
	if !samePick(inc, want) || !samePick(brute, want) {
		t.Fatalf("%s: kernel %+v, brute %+v, enumeration %+v (cands %v ctx %v)",
			what, inc, brute, want, c.cands, c.ctx)
	}
	if inc.Nodes != brute.Nodes {
		t.Fatalf("%s: kernel expanded %d nodes, brute %d", what, inc.Nodes, brute.Nodes)
	}
}

func TestSolveMatchesEnumeration(t *testing.T) {
	for trial := 0; trial < 240; trial++ {
		rng := randx.New(uint64(trial) ^ 0x77)
		c := genBoundCase(t, uint64(6100+trial), uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(trial))
		checkBoundCase(t, c, "trial")
	}
}

func FuzzSolveExact(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(80), uint8(0))
	f.Add(uint64(2), uint8(13), uint8(200), uint8(1))
	f.Add(uint64(3), uint8(9), uint8(40), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, readers, tags, shape uint8) {
		checkBoundCase(t, genBoundCase(t, seed, readers, tags, shape), "fuzz")
	})
}

// TestSolveAsymmetricRows pins the direction of the block rows and of the
// cover cliques on hand-built readers A (3 tags, searched first), B and C
// (2 tags each), far apart, so any admitted set weighs the sum of its
// members. The search asks whether the later reader's row holds the
// earlier one; reading the earlier reader's own row instead flips the first
// two answers. In the third case A conflicts with B and C, and only B's row
// holds C, so {B, C} is admitted and beats A. Cliques built from each
// reader's own row would put B and C in A's clique, bound the exclude-A
// branch by B's weight alone and return {A}.
func TestSolveAsymmetricRows(t *testing.T) {
	readers := []model.Reader{
		{Pos: geom.Pt(0, 0), InterferenceR: 5, InterrogationR: 4},  // A
		{Pos: geom.Pt(40, 0), InterferenceR: 5, InterrogationR: 4}, // B
		{Pos: geom.Pt(80, 0), InterferenceR: 5, InterrogationR: 4}, // C
	}
	tags := []model.Tag{
		{Pos: geom.Pt(0, 0)}, {Pos: geom.Pt(1, 0)}, {Pos: geom.Pt(0, 1)}, // A's
		{Pos: geom.Pt(40, 0)}, {Pos: geom.Pt(41, 0)}, // B's
		{Pos: geom.Pt(80, 0)}, {Pos: geom.Pt(81, 0)}, // C's
	}
	sys, err := model.NewSystem(readers, tags)
	if err != nil {
		t.Fatal(err)
	}
	const a, b, c = 1 << 0, 1 << 1, 1 << 2
	for _, tc := range []struct {
		name  string
		cands []int
		conf  []uint64 // rows of A, B and C
		want  []int
	}{
		{"B's row holds A", []int{1, 0}, []uint64{a, b | a, c}, []int{0}},
		{"A's row holds B", []int{1, 0}, []uint64{a | b, b, c}, []int{0, 1}},
		{"only B's row holds C", []int{2, 1, 0}, []uint64{a | b | c, b | a | c, c | a}, []int{1, 2}},
	} {
		res := Solve(sys, tc.cands, Options{Conflicts: tc.conf})
		if !slices.Equal(res.Set, tc.want) {
			t.Errorf("%s: set %v, want %v", tc.name, res.Set, tc.want)
		}
	}
}

// TestSolveNodesGrowthBall pins the node count of one fixed local solve: an
// Alg. 2 ball (reader 0's 4-hop ball on the paper deployment at 120 x 2400,
// deploy seed 2011, 53 readers) with graph-row feasibility. The static
// suffix bound that counted blocked candidates expanded 351480 nodes here,
// the conflict-aware bound alone 9469; the count must never grow.
func TestSolveNodesGrowthBall(t *testing.T) {
	const growthBallNodes = 763
	cfg := deploy.Paper(2011, 12, 5)
	cfg.NumReaders, cfg.NumTags = 120, 2400
	sys, err := deploy.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromSystem(sys)
	conf, _ := g.ConflictBits()
	ball := g.Ball(0, 4)
	res := Solve(sys, ball, Options{Conflicts: conf})
	if !res.Exact {
		t.Fatal("ball solve truncated")
	}
	if res.Nodes > growthBallNodes {
		t.Errorf("ball solve expanded %d nodes, more than the pinned %d", res.Nodes, growthBallNodes)
	}
}
