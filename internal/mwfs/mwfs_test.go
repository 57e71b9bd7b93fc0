package mwfs

import (
	"sync"
	"testing"

	"rfidsched/internal/deploy"
	"rfidsched/internal/geom"
	"rfidsched/internal/model"
	"rfidsched/internal/randx"
)

func figure2System(t *testing.T) *model.System {
	t.Helper()
	readers := []model.Reader{
		{Pos: geom.Pt(0, 0), InterferenceR: 8, InterrogationR: 6},
		{Pos: geom.Pt(10, 0), InterferenceR: 8, InterrogationR: 6},
		{Pos: geom.Pt(20, 0), InterferenceR: 8, InterrogationR: 6},
	}
	tags := []model.Tag{
		{Pos: geom.Pt(0, 0)},
		{Pos: geom.Pt(5, 0)},
		{Pos: geom.Pt(15, 0)},
		{Pos: geom.Pt(20, 0)},
		{Pos: geom.Pt(10, 0)},
	}
	s, err := model.NewSystem(readers, tags)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSolveFigure2(t *testing.T) {
	s := figure2System(t)
	res := Solve(s, []int{0, 1, 2}, Options{})
	if !res.Exact {
		t.Error("tiny instance should solve exactly")
	}
	if res.Weight != 4 {
		t.Errorf("optimal weight = %d, want 4 (activate A and C)", res.Weight)
	}
	if len(res.Set) != 2 || res.Set[0] != 0 || res.Set[1] != 2 {
		t.Errorf("optimal set = %v, want [0 2]", res.Set)
	}
}

func TestSolveRespectsReadTags(t *testing.T) {
	s := figure2System(t)
	// Read everything A can see; optimum shifts.
	s.MarkRead(0)
	s.MarkRead(1)
	res := Solve(s, []int{0, 1, 2}, Options{})
	// Remaining unread: tags 2(B,C overlap),3(C),4(B).
	// {B,C}: tag2 overlap lost, 3 and 4 covered -> 2. {B}: 2,4 -> 2.
	// {C}: 2,3 -> 2. {A,C} -> 2. Optimum 2.
	if res.Weight != 2 {
		t.Errorf("weight = %d, want 2", res.Weight)
	}
}

func TestSolveEmptyCandidates(t *testing.T) {
	s := figure2System(t)
	res := Solve(s, nil, Options{})
	if res.Weight != 0 || len(res.Set) != 0 || !res.Exact {
		t.Errorf("empty candidates: %+v", res)
	}
}

func TestSolveSingleton(t *testing.T) {
	s := figure2System(t)
	res := Solve(s, []int{1}, Options{})
	if res.Weight != 3 || len(res.Set) != 1 || res.Set[0] != 1 {
		t.Errorf("singleton solve: %+v", res)
	}
}

func TestSolveIgnoresInvalidCandidates(t *testing.T) {
	s := figure2System(t)
	res := Solve(s, []int{-3, 0, 2, 99}, Options{})
	if res.Weight != 4 {
		t.Errorf("weight = %d, want 4", res.Weight)
	}
}

func TestSolveOutputFeasible(t *testing.T) {
	sys, err := deploy.Generate(deploy.Paper(3, 10, 5))
	if err != nil {
		t.Fatal(err)
	}
	cands := make([]int, 20)
	for i := range cands {
		cands[i] = i
	}
	res := Solve(sys, cands, Options{})
	if !sys.IsFeasible(res.Set) {
		t.Fatalf("solver returned infeasible set %v", res.Set)
	}
	if got := sys.Weight(res.Set); got != res.Weight {
		t.Errorf("reported weight %d != recomputed %d", res.Weight, got)
	}
}

// Brute force over all subsets must agree with branch and bound.
func TestSolveMatchesBruteForce(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := deploy.Config{
			Seed: seed, NumReaders: 10, NumTags: 120, Side: 40,
			LambdaR: 10, LambdaSmallR: 5,
		}
		sys, err := deploy.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cands := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
		res := Solve(sys, cands, Options{})

		bestW := 0
		for mask := 0; mask < 1<<10; mask++ {
			var set []int
			for b := 0; b < 10; b++ {
				if mask&(1<<b) != 0 {
					set = append(set, b)
				}
			}
			if !sys.IsFeasible(set) {
				continue
			}
			if w := sys.Weight(set); w > bestW {
				bestW = w
			}
		}
		if res.Weight != bestW {
			t.Errorf("seed %d: B&B weight %d, brute force %d", seed, res.Weight, bestW)
		}
	}
}

func TestSolveNodeCap(t *testing.T) {
	sys, err := deploy.Generate(deploy.Paper(7, 10, 5))
	if err != nil {
		t.Fatal(err)
	}
	cands := make([]int, sys.NumReaders())
	for i := range cands {
		cands[i] = i
	}
	res := Solve(sys, cands, Options{MaxNodes: 50})
	if res.Exact {
		t.Error("node cap of 50 on a 50-reader instance should truncate")
	}
	if !sys.IsFeasible(res.Set) {
		t.Error("truncated result infeasible")
	}
}

func TestSolveDeterministic(t *testing.T) {
	sys, err := deploy.Generate(deploy.Paper(9, 12, 5))
	if err != nil {
		t.Fatal(err)
	}
	cands := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	a := Solve(sys, cands, Options{})
	b := Solve(sys, cands, Options{})
	if a.Weight != b.Weight || len(a.Set) != len(b.Set) {
		t.Fatal("solver not deterministic")
	}
	for i := range a.Set {
		if a.Set[i] != b.Set[i] {
			t.Fatal("solver set order not deterministic")
		}
	}
}

// TestSolveConflictsOverride checks that Options.Conflicts alone decides
// feasibility: a complete conflict matrix admits only singletons, a
// self-only matrix admits every subset, and a mis-shaped matrix is refused.
func TestSolveConflictsOverride(t *testing.T) {
	s := figure2System(t)
	n := s.NumReaders()
	all := []int{0, 1, 2}

	complete := make([]uint64, n) // one word per row
	selfOnly := make([]uint64, n)
	for v := 0; v < n; v++ {
		complete[v] = 1<<n - 1
		selfOnly[v] = 1 << v
	}
	res := Solve(s, all, Options{Conflicts: complete})
	if len(res.Set) != 1 || res.Weight != 3 {
		t.Errorf("complete conflicts: got %+v, want one reader of weight 3", res)
	}
	geo := Solve(s, all, Options{})
	res = Solve(s, all, Options{Conflicts: selfOnly})
	if res.Weight < geo.Weight {
		t.Errorf("self-only conflicts: weight %d below the geometric optimum %d", res.Weight, geo.Weight)
	}
	if own, _ := s.ConflictBits(); !samePick(Solve(s, all, Options{Conflicts: own}), geo) {
		t.Error("passing the system's own matrix changed the answer")
	}

	defer func() {
		if recover() == nil {
			t.Error("mis-shaped Conflicts did not panic")
		}
	}()
	Solve(s, all, Options{Conflicts: make([]uint64, n+1)})
}

// samePick reports whether two results agree on everything but Nodes.
func samePick(a, b Result) bool {
	if a.Weight != b.Weight || a.Exact != b.Exact || len(a.Set) != len(b.Set) {
		return false
	}
	for i := range a.Set {
		if a.Set[i] != b.Set[i] {
			return false
		}
	}
	return true
}

// TestSolveConcurrentOnOneSystem runs many solves on one System from several
// goroutines at once, as Alg. 3 heads do within a protocol round and serve's
// workers do across requests: Solve only reads the System and draws its
// kernel from the shared pool, so every concurrent answer must equal the
// sequential one (run under -race).
func TestSolveConcurrentOnOneSystem(t *testing.T) {
	sys := randomSystem(t, 4711, 24, 200)
	for tg := 0; tg < sys.NumTags(); tg += 3 {
		sys.MarkRead(tg)
	}
	type job struct {
		cands []int
		opts  Options
	}
	rng := randx.New(4711)
	jobs := make([]job, 32)
	want := make([]Result, len(jobs))
	for i := range jobs {
		for v := 0; v < sys.NumReaders(); v++ {
			switch {
			case rng.Bool(0.4):
				jobs[i].cands = append(jobs[i].cands, v)
			case rng.Bool(0.2):
				jobs[i].opts.Context = append(jobs[i].opts.Context, v)
			}
		}
		want[i] = Solve(sys, jobs[i].cands, jobs[i].opts)
	}
	got := make([]Result, len(jobs))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(jobs); i += 4 {
				got[i] = Solve(sys, jobs[i].cands, jobs[i].opts)
			}
		}(g)
	}
	wg.Wait()
	for i := range jobs {
		if !samePick(got[i], want[i]) {
			t.Errorf("job %d: concurrent %+v, sequential %+v", i, got[i], want[i])
		}
	}
}
