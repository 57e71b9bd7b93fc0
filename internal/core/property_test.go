package core

import (
	"slices"
	"testing"
	"testing/quick"

	"rfidsched/internal/deploy"
	"rfidsched/internal/graph"
	"rfidsched/internal/model"
	"rfidsched/internal/mwfs"
	"rfidsched/internal/randx"
	"rfidsched/internal/survey"
)

// Property-based tests over the paper's algorithms: feasibility and
// quality invariants on randomized instances driven by testing/quick.

func quickSystem(seed uint64) (*model.System, *graph.Graph) {
	cfg := deploy.Config{
		Seed:         seed%100000 + 1,
		NumReaders:   10 + int(seed%8),
		NumTags:      60 + int(seed%40),
		Side:         50,
		LambdaR:      8 + float64(seed%6),
		LambdaSmallR: 4,
	}
	sys, err := deploy.Generate(cfg)
	if err != nil {
		panic(err)
	}
	return sys, graph.FromSystem(sys)
}

var quickCfg = &quick.Config{MaxCount: 25}

// Every algorithm's one-shot output is a feasible scheduling set.
func TestPropAllAlgorithmsFeasible(t *testing.T) {
	f := func(seed uint64) bool {
		sys, g := quickSystem(seed)
		for _, sched := range []model.OneShotScheduler{
			NewPTAS(), NewGrowth(g, 1.25), NewDistributed(g, 1.25),
		} {
			X, err := sched.OneShot(sys)
			if err != nil {
				return false
			}
			if !sys.IsFeasible(X) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Algorithms never return duplicate readers.
func TestPropNoDuplicateReaders(t *testing.T) {
	f := func(seed uint64) bool {
		sys, g := quickSystem(seed)
		for _, sched := range []model.OneShotScheduler{
			NewPTAS(), NewGrowth(g, 1.25), NewDistributed(g, 1.25),
		} {
			X, err := sched.OneShot(sys)
			if err != nil {
				return false
			}
			seen := map[int]bool{}
			for _, v := range X {
				if seen[v] {
					return false
				}
				seen[v] = true
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// The Theorem 4 guarantee holds on random instances: rho * w(Alg2) >= OPT.
func TestPropGrowthGuarantee(t *testing.T) {
	f := func(seed uint64) bool {
		sys, g := quickSystem(seed)
		rho := 1.5
		X, err := NewGrowth(g, rho).OneShot(sys)
		if err != nil {
			return false
		}
		cands := make([]int, sys.NumReaders())
		for i := range cands {
			cands[i] = i
		}
		opt := mwfs.Solve(sys, cands, mwfs.Options{})
		return float64(sys.Weight(X))*rho >= float64(opt.Weight)-1e-9
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// MWFS solver invariants: output feasible, weight matches recomputation,
// no candidate outside the input, and the solution dominates every single
// candidate.
func TestPropMWFSSolver(t *testing.T) {
	f := func(seed uint64) bool {
		sys, _ := quickSystem(seed)
		cands := []int{0, 1, 2, 3, 4, 5, 6, 7}
		res := mwfs.Solve(sys, cands, mwfs.Options{})
		if !sys.IsFeasible(res.Set) {
			return false
		}
		if sys.Weight(res.Set) != res.Weight {
			return false
		}
		in := map[int]bool{}
		for _, c := range cands {
			in[c] = true
		}
		for _, v := range res.Set {
			if !in[v] {
				return false
			}
		}
		for _, v := range cands {
			if sys.SingletonWeight(v) > res.Weight {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// The MCS driver reads every coverable tag exactly once, with any of the
// paper's algorithms.
func TestPropMCSServesEverythingOnce(t *testing.T) {
	f := func(seed uint64) bool {
		sys, g := quickSystem(seed)
		coverable := sys.CoverableCount()
		res, err := RunMCS(sys, NewGrowth(g, 1.25), MCSOptions{RecordSlots: true})
		if err != nil || res.Incomplete {
			return false
		}
		if res.TotalRead != coverable {
			return false
		}
		seen := map[int]bool{}
		count := 0
		for _, slot := range res.Slots {
			count += slot.TagsRead
		}
		_ = seen
		return count == coverable
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// The pruning pass never reduces weight.
func TestPropPruneNeverHurts(t *testing.T) {
	f := func(seed uint64) bool {
		sys, g := quickSystem(seed)
		gr := NewGrowth(g, 1.25)
		X, err := gr.OneShot(sys)
		if err != nil {
			return false
		}
		pruned := pruneByWeight(sys, X)
		return sys.Weight(pruned) >= sys.Weight(X)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Augmentation never reduces weight and preserves feasibility.
func TestPropAugmentSafe(t *testing.T) {
	f := func(seed uint64) bool {
		sys, _ := quickSystem(seed)
		base := []int{0}
		aug := augmentFeasible(sys, base)
		return sys.IsFeasible(aug) && sys.Weight(aug) >= sys.Weight(base)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// refAugmentFeasible is augmentFeasible on brute-force weights: the same
// greedy (ascending reader index, strict improvement, so the lowest index
// wins ties), probing each candidate with a full weight recompute.
func refAugmentFeasible(sys *model.System, X []int) []int {
	cur := append([]int(nil), X...)
	curW := sys.Weight(cur)
	for {
		bestV, bestW := -1, curW
		for v := 0; v < sys.NumReaders(); v++ {
			if slices.Contains(cur, v) || slices.ContainsFunc(cur, func(u int) bool { return !sys.Independent(u, v) }) {
				continue
			}
			if w := curW + sys.MarginalWeightFrom(curW, cur, v); w > bestW {
				bestV, bestW = v, w
			}
		}
		if bestV < 0 {
			return cur
		}
		cur = append(cur, bestV)
		curW = bestW
	}
}

// refPruneByWeight is pruneByWeight on brute-force weights: each round drops
// the first position whose removal strictly raises w the most.
func refPruneByWeight(sys *model.System, X []int) []int {
	cur := append([]int(nil), X...)
	curW := sys.Weight(cur)
	for {
		bestIdx, bestW := -1, curW
		for i := range cur {
			if w := sys.Weight(slices.Delete(slices.Clone(cur), i, i+1)); w > bestW {
				bestIdx, bestW = i, w
			}
		}
		if bestIdx < 0 {
			return cur
		}
		cur = slices.Delete(cur, bestIdx, bestIdx+1)
		curW = bestW
	}
}

// greedyIndependent returns a maximal set independent in g, built in a
// random order. On a survey graph that misses real edges the set may hold
// readers that interfere in the geometry.
func greedyIndependent(g *graph.Graph, rng *randx.RNG) []int {
	var X []int
	for _, v := range rng.Perm(g.N()) {
		if !slices.ContainsFunc(X, func(u int) bool { return g.HasEdge(u, v) }) {
			X = append(X, v)
		}
	}
	return X
}

// The augmentation and pruning passes return exactly the slices of their
// brute-force references, on instances with read tags and down readers,
// for arbitrary (possibly infeasible) sets of every small size and for
// survey-independent sets whose readers may really interfere.
func TestAugmentAndPruneMatchReference(t *testing.T) {
	var grown, pruned, interfering int
	for seed := uint64(1); seed <= 40; seed++ {
		sys, _ := quickSystem(seed)
		rng := randx.New(seed)
		for tg := 0; tg < sys.NumTags(); tg++ {
			if rng.Bool(0.3) {
				sys.MarkRead(tg)
			}
		}
		for v := 0; v < sys.NumReaders(); v++ {
			if rng.Bool(0.15) {
				sys.SetReaderDown(v, true)
			}
		}
		sets := [][]int{nil}
		for _, size := range []int{1, 2, 3, 5, 7} {
			sets = append(sets, rng.Perm(sys.NumReaders())[:size])
		}
		sg, _, err := survey.EstimateGraph(sys, survey.Params{ShadowSigma: 6, Samples: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		indep := greedyIndependent(sg, rng)
		if !sys.IsFeasible(indep) {
			interfering++
		}
		sets = append(sets, indep)
		for _, X := range sets {
			got, want := augmentFeasible(sys, X), refAugmentFeasible(sys, X)
			if !slices.Equal(got, want) {
				t.Errorf("seed %d: augmentFeasible(%v) = %v, want %v", seed, X, got, want)
			}
			if len(want) > len(X) {
				grown++
			}
			got, want = pruneByWeight(sys, X), refPruneByWeight(sys, X)
			if !slices.Equal(got, want) {
				t.Errorf("seed %d: pruneByWeight(%v) = %v, want %v", seed, X, got, want)
			}
			if len(want) < len(X) {
				pruned++
			}
		}
	}
	// The comparison must not be vacuous.
	if grown == 0 || pruned == 0 || interfering == 0 {
		t.Errorf("grown %d, pruned %d, interfering survey sets %d: want all > 0", grown, pruned, interfering)
	}
}

// Alg2 and Alg3 remain feasible on survey-style degraded graphs (random
// edge supersets of the true graph): extra edges only restrict choices.
func TestPropFeasibleOnDenserGraphs(t *testing.T) {
	f := func(seed uint64) bool {
		sys, g := quickSystem(seed)
		// Build a denser graph: true edges plus a few arbitrary ones.
		var edges [][2]int
		for u := 0; u < g.N(); u++ {
			for _, w := range g.Neighbors(u) {
				if int(w) > u {
					edges = append(edges, [2]int{u, int(w)})
				}
			}
		}
		extra := 0
		for u := 0; u < g.N()-1 && extra < 5; u++ {
			v := u + 1 + int(seed+uint64(u))%(g.N()-u-1)
			if !g.HasEdge(u, v) {
				edges = append(edges, [2]int{u, v})
				extra++
			}
		}
		dense, err := graph.New(g.N(), edges)
		if err != nil {
			return true // duplicate pick; property vacuous this run
		}
		X, err := NewGrowth(dense, 1.25).OneShot(sys)
		if err != nil {
			return false
		}
		// Independent in the denser graph implies independent in the true
		// graph, which equals geometric feasibility.
		return sys.IsFeasible(X)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}
