package model

import (
	"math"
	"slices"
	"testing"

	"rfidsched/internal/geom"
	"rfidsched/internal/randx"
)

// Differential tests: the compiled local kernel must report exactly
// System.Weight of (deduplicated context ∪ pushed readers) after every step
// of any LIFO push/pop sequence the branch-and-bound search can produce.

// localCase is one randomized kernel instance: heterogeneous radii, read
// tags, down readers, a context with duplicates and out-of-range entries,
// duplicate candidates, and a survey-style conflict matrix that misses some
// geometric conflicts. With nilConf the kernel is compiled with no matrix,
// as the greedy passes do: candidates are distinct and any of them may be
// pushed together, interfering or not.
type localCase struct {
	readers, tags int
	dropPct       int // percent of geometric conflicts the matrix misses
	nilConf       bool
	steps         int
}

// runLocalCase drives one random push/pop sequence and fails t on the first
// weight mismatch. It returns the number of states checked and how many of
// them had a dirty (interfered-with) active reader.
func runLocalCase(t *testing.T, seed uint64, c localCase) (states, dirty int) {
	t.Helper()
	rng := randx.New(seed)
	readers := make([]Reader, c.readers)
	for i := range readers {
		R := 2.5 * math.Pow(16, rng.Float64())
		readers[i] = Reader{
			Pos:            geom.Pt(rng.Float64()*50, rng.Float64()*50),
			InterferenceR:  R,
			InterrogationR: math.Min(R, 2+rng.Float64()*7),
		}
	}
	tags := make([]Tag, c.tags)
	for i := range tags {
		tags[i] = Tag{Pos: geom.Pt(rng.Float64()*50, rng.Float64()*50)}
	}
	sys, err := NewSystem(readers, tags)
	if err != nil {
		t.Fatal(err)
	}
	n := sys.NumReaders()
	for tg := 0; tg < sys.NumTags(); tg++ {
		if rng.Bool(0.2) {
			sys.MarkRead(tg)
		}
	}
	for v := 0; v < n; v++ {
		if rng.Bool(0.1) {
			sys.SetReaderDown(v, true)
		}
	}

	// Survey-style matrix: drop each geometric conflict pair (both
	// directions) with probability dropPct, keep every self bit.
	geo, w := sys.ConflictBits()
	conf := slices.Clone(geo)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if hasBit(geo[u*w:], v) && rng.Intn(100) < c.dropPct {
				conf[u*w+v>>6] &^= 1 << (uint(v) & 63)
				conf[v*w+u>>6] &^= 1 << (uint(u) & 63)
			}
		}
	}

	var ctx, cands []int
	for v := 0; v < n; v++ {
		switch {
		case rng.Bool(0.15):
			ctx = append(ctx, v)
			if rng.Bool(0.3) {
				ctx = append(ctx, v) // duplicate context entry
			}
		case rng.Bool(0.7):
			cands = append(cands, v)
			if !c.nilConf && rng.Bool(0.1) {
				cands = append(cands, v) // duplicate candidate: one local reader
			}
		}
	}
	if rng.Bool(0.3) {
		ctx = append(ctx, -1, n) // out of range: ignored
	}
	if len(ctx) > 0 && rng.Bool(0.3) {
		cands = append(cands, ctx[0]) // committed already: dropped
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })

	compileConf := conf
	if c.nilConf {
		// Pushes are then chosen by the self bits alone: a reader is never
		// pushed twice, but readers that interfere are pushed together.
		compileConf = nil
		clear(conf)
		for v := 0; v < n; v++ {
			conf[v*w+v>>6] |= 1 << (uint(v) & 63)
		}
	}
	k := CompileLocal(sys, ctx, cands, compileConf, w)
	defer k.Release()
	checkLocalOrder(t, sys, k, ctx, cands, compileConf, w)

	var dedupCtx []int
	for _, g := range k.Context() {
		dedupCtx = append(dedupCtx, int(g))
	}
	e := k.Evals(1)[0]
	curBits := make([]uint64, w)
	var stack []int // candidate positions, LIFO
	check := func(got int, what string) {
		t.Helper()
		X := slices.Clone(dedupCtx)
		for _, i := range stack {
			X = append(X, k.Candidates()[i])
		}
		if want := sys.Weight(X); got != want || e.Weight() != want {
			t.Fatalf("seed %d %s: kernel %d (Weight %d), System.Weight %d, set %v ctx %v",
				seed, what, got, e.Weight(), want, X, ctx)
		}
		states++
		if len(e.dirty) > 0 {
			dirty++
		}
	}
	check(e.Weight(), "context")
	for step := 0; step < c.steps; step++ {
		if len(stack) > 0 && rng.Bool(0.4) {
			v := k.Candidates()[stack[len(stack)-1]]
			curBits[v>>6] &^= 1 << (uint(v) & 63)
			stack = stack[:len(stack)-1]
			e.Pop()
			check(e.Weight(), "pop")
			continue
		}
		// Push a random candidate the search could include here.
		var feasible []int
		for i, v := range k.Candidates() {
			row := conf[v*w : (v+1)*w]
			ok := true
			for j := range row {
				if row[j]&curBits[j] != 0 {
					ok = false
					break
				}
			}
			if ok {
				feasible = append(feasible, i)
			}
		}
		if len(feasible) == 0 {
			continue
		}
		i := feasible[rng.Intn(len(feasible))]
		v := k.Candidates()[i]
		curBits[v>>6] |= 1 << (uint(v) & 63)
		stack = append(stack, i)
		check(e.Push(k.LocalIDs()[i]), "push")
	}
	return states, dirty
}

// checkLocalOrder pins the compile pass's candidate handling: out-of-range
// and context candidates dropped, heaviest singleton first with ties by
// index, local ids after the context (and Local agreeing with them),
// singleton weights, and the block rows read in the direction the search
// asks (cand[j]'s row holds cand[i]), all zero under a nil conf.
func checkLocalOrder(t *testing.T, sys *System, k *LocalKernel, ctx, cands []int, conf []uint64, confW int) {
	t.Helper()
	inCtx := map[int]bool{}
	for _, c := range ctx {
		inCtx[c] = true
	}
	var want []int
	for _, v := range cands {
		if v >= 0 && v < sys.NumReaders() && !inCtx[v] {
			want = append(want, v)
		}
	}
	slices.SortStableFunc(want, func(a, b int) int {
		if d := sys.SingletonWeight(b) - sys.SingletonWeight(a); d != 0 {
			return d
		}
		return a - b
	})
	if !slices.Equal(k.Candidates(), want) {
		t.Fatalf("candidates %v, want %v", k.Candidates(), want)
	}
	for v := 0; v < sys.NumReaders(); v++ {
		if !inCtx[v] && !slices.Contains(want, v) && k.Local(v) != -1 {
			t.Fatalf("reader %d is not local, Local %d", v, k.Local(v))
		}
	}
	rows, stride := k.BlockRows()
	for i := range want {
		if got := k.Singles()[i]; got != sys.SingletonWeight(want[i]) {
			t.Fatalf("single[%d] = %d, want %d", i, got, sys.SingletonWeight(want[i]))
		}
		if l := int(k.LocalIDs()[i]); l < len(k.Context()) || k.Local(want[i]) != k.LocalIDs()[i] {
			t.Fatalf("candidate %d has local id %d, Local %d, want one past the context", want[i], l, k.Local(want[i]))
		}
		for j := range want {
			wantBit := conf != nil && j > i && hasBit(conf[want[j]*confW:], want[i])
			if got := hasBit(rows[i*stride:], j); got != wantBit {
				t.Fatalf("block row %d bit %d = %t, want %t", i, j, got, wantBit)
			}
		}
	}
}

func TestLocalKernelMatchesWeight(t *testing.T) {
	states, dirty := 0, 0
	for trial := 0; trial < 300; trial++ {
		c := localCase{readers: 8 + trial%24, tags: 40 + 7*(trial%30), dropPct: []int{0, 30, 70, 100}[trial%4], nilConf: trial%5 == 4, steps: 120}
		s, d := runLocalCase(t, uint64(5100+trial), c)
		states += s
		dirty += d
	}
	// The survey-style matrices must actually reach the correction term.
	if dirty < states/10 {
		t.Fatalf("only %d of %d states had a dirty reader", dirty, states)
	}
	t.Logf("%d states, %d with a dirty reader", states, dirty)
}

// TestLocalKernelReuse recompiles pooled kernels over systems of one
// geometry with different read states while evaluators are left mid-search:
// Evals must hand back evaluators holding exactly the new context.
func TestLocalKernelReuse(t *testing.T) {
	sys := genSystem(41, 20, 150)
	conf, w := sys.ConflictBits()
	all := make([]int, sys.NumReaders())
	for i := range all {
		all[i] = i
	}
	for round := 0; round < 20; round++ {
		ctx := []int{round % 20, (round * 7) % 20}
		k := CompileLocal(sys, ctx, all, conf, w)
		evs := k.Evals(3)
		for j, e := range evs {
			if got, want := e.Weight(), sys.Weight(dedup(ctx)); got != want {
				t.Fatalf("round %d eval %d: context weight %d, want %d", round, j, got, want)
			}
			e.Push(k.LocalIDs()[j]) // left pushed on purpose
		}
		k.Release()
		sys.MarkRead(round * 7)
	}
}

func dedup(a []int) []int {
	out := slices.Clone(a)
	slices.Sort(out)
	return slices.Compact(out)
}

func FuzzLocalWeight(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(80), uint8(50), false)
	f.Add(uint64(2), uint8(30), uint8(200), uint8(100), false)
	f.Add(uint64(3), uint8(3), uint8(0), uint8(0), false)
	f.Add(uint64(4), uint8(25), uint8(150), uint8(0), true)
	f.Fuzz(func(t *testing.T, seed uint64, readers, tags, drop uint8, nilConf bool) {
		runLocalCase(t, seed, localCase{
			readers: 1 + int(readers)%40,
			tags:    int(tags),
			dropPct: int(drop) % 101,
			nilConf: nilConf,
			steps:   80,
		})
	})
}
