package mwfs

import (
	"testing"

	"rfidsched/internal/geom"
	"rfidsched/internal/model"
	"rfidsched/internal/randx"
)

// Differential tests: the incremental-evaluator search must return exactly
// the same Result (set, weight, exactness, node count) as the brute-force
// path, across randomized deployments, contexts, down masks, and read churn.

func randomSystem(t *testing.T, seed uint64, n, m int) *model.System {
	t.Helper()
	rng := randx.New(seed)
	readers := make([]model.Reader, n)
	for i := range readers {
		R := 3 + rng.Float64()*9
		readers[i] = model.Reader{
			Pos:            geom.Pt(rng.Float64()*50, rng.Float64()*50),
			InterferenceR:  R,
			InterrogationR: 0.4*R + rng.Float64()*0.6*R,
		}
	}
	tags := make([]model.Tag, m)
	for i := range tags {
		tags[i] = model.Tag{Pos: geom.Pt(rng.Float64()*50, rng.Float64()*50)}
	}
	sys, err := model.NewSystem(readers, tags)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys
}

func sameResult(a, b Result) bool {
	if a.Weight != b.Weight || a.Exact != b.Exact || a.Nodes != b.Nodes || len(a.Set) != len(b.Set) {
		return false
	}
	for i := range a.Set {
		if a.Set[i] != b.Set[i] {
			return false
		}
	}
	return true
}

// TestSolveIncrementalEqualsBrute sweeps randomized instances — optionally
// with fault masks, pre-read tags, and committed contexts — and asserts the
// two search paths are indistinguishable.
func TestSolveIncrementalEqualsBrute(t *testing.T) {
	for trial := 0; trial < 120; trial++ {
		seed := uint64(3300 + trial)
		rng := randx.New(seed ^ 0x5a5a)
		sys := randomSystem(t, seed, 6+rng.Intn(9), 30+rng.Intn(60))

		// Churn: read some tags, crash some readers.
		for tg := 0; tg < sys.NumTags(); tg++ {
			if rng.Bool(0.25) {
				sys.MarkRead(tg)
			}
		}
		for v := 0; v < sys.NumReaders(); v++ {
			if rng.Bool(0.15) {
				sys.SetReaderDown(v, true)
			}
		}

		// Random candidate subset and (disjoint) random context.
		var cands, ctx []int
		for v := 0; v < sys.NumReaders(); v++ {
			switch {
			case rng.Bool(0.6):
				cands = append(cands, v)
			case rng.Bool(0.3):
				ctx = append(ctx, v)
			}
		}
		opts := Options{Context: ctx}
		inc := Solve(sys, cands, opts)
		opts.BruteForce = true
		brute := Solve(sys, cands, opts)
		if !sameResult(inc, brute) {
			t.Fatalf("trial %d: incremental %+v != brute %+v", trial, inc, brute)
		}
	}
}

// TestSolveIncrementalEqualsBruteTruncated pins equivalence when the node
// cap truncates the search: identical expansion order means identical
// truncation points and identical best-so-far results.
func TestSolveIncrementalEqualsBruteTruncated(t *testing.T) {
	sys := randomSystem(t, 99, 14, 120)
	cands := make([]int, sys.NumReaders())
	for i := range cands {
		cands[i] = i
	}
	for _, maxNodes := range []int{1, 5, 17, 100} {
		inc := Solve(sys, cands, Options{MaxNodes: maxNodes})
		brute := Solve(sys, cands, Options{MaxNodes: maxNodes, BruteForce: true})
		if !sameResult(inc, brute) {
			t.Fatalf("maxNodes=%d: incremental %+v != brute %+v", maxNodes, inc, brute)
		}
	}
}

// TestSolveContextCandidateOverlap documents the set semantics of Context:
// a candidate already committed in the context is skipped rather than
// double-activated, on both paths.
func TestSolveContextCandidateOverlap(t *testing.T) {
	sys := randomSystem(t, 7, 8, 50)
	cands := []int{0, 1, 2, 3, 4}
	ctx := []int{2, 4}
	inc := Solve(sys, cands, Options{Context: ctx})
	brute := Solve(sys, cands, Options{Context: ctx, BruteForce: true})
	if !sameResult(inc, brute) {
		t.Fatalf("overlap: incremental %+v != brute %+v", inc, brute)
	}
	for _, v := range inc.Set {
		if v == 2 || v == 4 {
			t.Fatalf("context reader %d re-activated in %v", v, inc.Set)
		}
	}
}

// TestSolveAllocsWarm holds a warm local solve — a 7-reader ball with a
// 2-reader context, the shape of an Alg. 2 growth step — to a fixed
// allocation budget: the compiled kernel and its evaluator come from the
// geometry's pool, so only the search's own state and the result allocate.
func TestSolveAllocsWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	sys := randomSystem(t, 21, 30, 400)
	sys.WarmAdjacency()
	cands := []int{3, 5, 8, 11, 14, 17, 20}
	opts := Options{Context: []int{1, 25}}
	Solve(sys, cands, opts)
	if a := testing.AllocsPerRun(200, func() { Solve(sys, cands, opts) }); a > 8 {
		t.Errorf("warm Solve allocates %v per call, want <= 8", a)
	}
}
