package mwfs

import (
	"runtime"
	"sync"
	"testing"

	"rfidsched/internal/deploy"
	"rfidsched/internal/graph"
	"rfidsched/internal/randx"
)

// Determinism property tests for the parallel engine: for any Workers value
// an untruncated Solve must return exactly the sequential Set/Weight/Exact.
// Nodes is excluded — stale incumbent reads legitimately change how much the
// pool prunes (the Options.Workers doc pins this contract).

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

// TestSolveParallelDeterminism sweeps randomized deployments with read
// churn, fault masks, and committed contexts, and asserts every worker count
// reproduces the sequential reference bit-for-bit.
func TestSolveParallelDeterminism(t *testing.T) {
	workerCounts := []int{0, 1, 2, 8, runtime.NumCPU()}
	for trial := 0; trial < 60; trial++ {
		seed := uint64(8100 + trial)
		rng := randx.New(seed ^ 0xc3c3)
		sys := randomSystem(t, seed, 12+rng.Intn(10), 60+rng.Intn(80))

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

		var cands, ctx []int
		for v := 0; v < sys.NumReaders(); v++ {
			switch {
			case rng.Bool(0.7):
				cands = append(cands, v)
			case rng.Bool(0.3):
				ctx = append(ctx, v)
			}
		}

		ref := Solve(sys, cands, Options{Context: ctx})
		if !ref.Exact {
			t.Fatalf("trial %d: reference search unexpectedly truncated", trial)
		}
		for _, w := range workerCounts {
			got := Solve(sys, cands, Options{Context: ctx, Workers: w})
			if !samePick(ref, got) {
				t.Fatalf("trial %d: Workers=%d returned %+v, sequential returned %+v",
					trial, w, got, ref)
			}
		}
	}
}

// TestSolveParallelDeterminismDense drives deployments dense enough that
// interference prunes branches INSIDE the frontier depth, over both full
// candidate lists and graph-ball candidate sets as Algorithm 2 issues them.
// Regression test: the subtree search must resume at the frontier depth, not
// at the prefix length — a task prefix holds only the included candidates,
// so the two differ exactly when the frontier region has exclusions, and
// resuming early re-decided already-settled candidates (duplicated readers
// in the returned set, wrong merge winners).
func TestSolveParallelDeterminismDense(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		for _, lambdaR := range []float64{14, 16} {
			sys, err := deploy.Generate(deploy.Config{
				Seed: uint64(10 + trial), NumReaders: 14, NumTags: 150,
				Side: 60, LambdaR: lambdaR, LambdaSmallR: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			g := graph.FromSystem(sys)

			full := make([]int, sys.NumReaders())
			for i := range full {
				full[i] = i
			}
			// The ball around the max-singleton reader is the candidate set
			// Algorithm 2 actually solves over.
			seedReader, bestW := 0, -1
			for v := 0; v < sys.NumReaders(); v++ {
				if w := sys.SingletonWeight(v); w > bestW {
					seedReader, bestW = v, w
				}
			}
			conf, _ := g.ConflictBits()
			for _, cands := range [][]int{full, g.Ball(seedReader, 4)} {
				ref := Solve(sys, cands, Options{Conflicts: conf})
				for _, w := range []int{2, 4, 8} {
					got := Solve(sys, cands, Options{Conflicts: conf, Workers: w})
					if !samePick(ref, got) {
						t.Fatalf("trial %d lambdaR=%v |cands|=%d: Workers=%d returned %+v, sequential %+v",
							trial, lambdaR, len(cands), w, got, ref)
					}
				}
			}
		}
	}
}

// TestSolveParallelBruteForce pins the parallel engine on the brute-force
// scoring path too (no evaluator, full Weight recompute per node).
func TestSolveParallelBruteForce(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		seed := uint64(9200 + trial)
		sys := randomSystem(t, seed, 13, 90)
		cands := make([]int, sys.NumReaders())
		for i := range cands {
			cands[i] = i
		}
		ref := Solve(sys, cands, Options{BruteForce: true})
		for _, w := range []int{2, 8} {
			got := Solve(sys, cands, Options{BruteForce: true, Workers: w})
			if !samePick(ref, got) {
				t.Fatalf("trial %d: Workers=%d brute %+v != sequential brute %+v",
					trial, w, got, ref)
			}
		}
	}
}

// TestSolveParallelTruncated checks the truncation contract: when MaxNodes
// bites, the parallel anytime best may differ from the sequential one, but it
// must still be a feasible set whose reported weight is its true weight, and
// Exact must be false on both paths.
func TestSolveParallelTruncated(t *testing.T) {
	sys := randomSystem(t, 4242, 18, 140)
	cands := make([]int, sys.NumReaders())
	for i := range cands {
		cands[i] = i
	}
	for _, maxNodes := range []int{40, 150, 300} {
		for _, w := range []int{2, 8} {
			got := Solve(sys, cands, Options{MaxNodes: maxNodes, Workers: w})
			if got.Exact {
				t.Fatalf("maxNodes=%d workers=%d: expected truncation, got Exact=true (nodes=%d)",
					maxNodes, w, got.Nodes)
			}
			for i, u := range got.Set {
				for _, v := range got.Set[i+1:] {
					if !sys.Independent(u, v) {
						t.Fatalf("maxNodes=%d workers=%d: infeasible pair (%d,%d) in %v",
							maxNodes, w, u, v, got.Set)
					}
				}
			}
			if trueW := sys.Weight(got.Set); trueW != got.Weight {
				t.Fatalf("maxNodes=%d workers=%d: reported weight %d, recomputed %d for %v",
					maxNodes, w, got.Weight, trueW, got.Set)
			}
		}
	}
}

// TestSolveConcurrentOnOneSystem runs many solves on one System from several
// goroutines at once, as Alg. 3 heads do within a protocol round: Solve only
// reads the System and draws its kernel from the shared pool, so every
// concurrent answer must equal the sequential one (run under -race).
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
		jobs[i].opts.Workers = i % 3
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
