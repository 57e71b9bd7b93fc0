package model

import (
	"sync"
	"testing"

	"rfidsched/internal/randx"
)

// Allocation-regression tests: the hot query paths must be allocation-free
// at steady state, and the pooled clone and kernel paths must stay within a
// fixed bound once their pools are warm. These are the machine-checked half
// of the microbench core gates.

func TestZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	_, _, sys := genSpreadSystem(11, 60, 400, 1)
	sys.WarmAdjacency()
	X := []int{1, 4, 9, 17, 23, 42}

	if a := testing.AllocsPerRun(100, func() { sys.Weight(X) }); a != 0 {
		t.Errorf("System.Weight allocates %v per op at steady state, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { sys.Collisions(X) }); a != 0 {
		t.Errorf("System.Collisions allocates %v per op, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { sys.IsFeasible(X) }); a != 0 {
		t.Errorf("System.IsFeasible allocates %v per op, want 0", a)
	}

	// The kernel is compiled with no conflict matrix, as the greedy passes
	// do, so interfering readers are pushed together and Weight pays its
	// correction term.
	all := make([]int, sys.NumReaders())
	for v := range all {
		all[v] = v
	}
	k := CompileLocal(sys, nil, all, nil, 0)
	defer k.Release()
	eval := k.Eval()
	ids := k.LocalIDs()
	for _, l := range ids[1:] {
		eval.Push(l)
	}
	if len(eval.dirty) == 0 {
		t.Fatal("no pushed reader is interfered with")
	}
	if a := testing.AllocsPerRun(100, func() { eval.Push(ids[0]); _ = eval.Weight(); eval.Pop() }); a != 0 {
		t.Errorf("LocalEval Push/Weight/Pop allocates %v per op, want 0", a)
	}
}

func TestPooledCloneAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	_, _, sys := genSpreadSystem(13, 60, 400, 1)
	sys.WarmAdjacency()
	cands := []int{3, 7, 11}
	cycle := func() {
		c := sys.ClonePooled()
		k := CompileLocal(c, nil, cands, nil, 0)
		k.Eval().Push(k.LocalIDs()[0])
		k.Release()
		c.Release()
	}
	cycle() // warm the pools

	// sync.Pool puts may allocate a per-P slot container on first use, so the
	// bound is a small constant rather than exactly zero; the point of the
	// gate is that the O(readers+tags) buffer allocations of a fresh Clone
	// and a fresh kernel are gone.
	if a := testing.AllocsPerRun(200, func() {
		c := sys.ClonePooled()
		c.Release()
	}); a > 1 {
		t.Errorf("pooled Clone/Release allocates %v per op, want <= 1", a)
	}
	if a := testing.AllocsPerRun(200, cycle); a > 2 {
		t.Errorf("pooled clone+kernel cycle allocates %v per op, want <= 2", a)
	}
}

// A pooled clone must behave exactly like a fresh Clone regardless of what
// the previous tenant of its buffers did.
func TestClonePooledMatchesClone(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		_, _, sys := genSpreadSystem(seed, 40, 250, 1)
		rng := randx.New(seed * 977)

		// Dirty a pooled clone with read/down churn, then release it.
		dirty := sys.ClonePooled()
		for i := 0; i < 30; i++ {
			dirty.MarkRead(int(rng.Intn(dirty.NumTags())))
		}
		dirty.SetReaderDown(int(rng.Intn(dirty.NumReaders())), true)
		dirty.Release()

		// Mutate the source, then clone both ways: the recycled buffers must
		// carry none of the dirty tenant's state.
		for i := 0; i < 20; i++ {
			sys.MarkRead(int(rng.Intn(sys.NumTags())))
		}
		sys.SetReaderDown(int(rng.Intn(sys.NumReaders())), true)

		fresh := sys.Clone()
		pooled := sys.ClonePooled()
		X := genSet(sys, seed)
		if fw, pw := fresh.Weight(X), pooled.Weight(X); fw != pw {
			t.Fatalf("seed %d: pooled clone weight %d != fresh clone weight %d", seed, pw, fw)
		}
		if fresh.UnreadCount() != pooled.UnreadCount() ||
			fresh.DownReaders() != pooled.DownReaders() ||
			fresh.UnreadCoverableCount() != pooled.UnreadCoverableCount() {
			t.Fatalf("seed %d: pooled clone state diverges from fresh clone", seed)
		}
		for v := 0; v < sys.NumReaders(); v++ {
			if fresh.SingletonWeight(v) != pooled.SingletonWeight(v) {
				t.Fatalf("seed %d: SingletonWeight(%d) diverges", seed, v)
			}
		}
		pooled.Release()
	}
}

// Release must be idempotent and must never recycle the original System.
func TestPoolOwnershipGuards(t *testing.T) {
	_, _, sys := genSpreadSystem(31, 20, 80, 1)
	c := sys.ClonePooled()
	c.Release()
	c.Release() // idempotent
	c2 := sys.ClonePooled()
	c3 := sys.ClonePooled()
	if c2 == c3 {
		t.Fatal("a double Release handed one clone out twice")
	}
	c2.Release()
	c3.Release()

	// The original System is never pooled.
	sys.Release()
	if got := sys.ClonePooled(); got == sys {
		t.Fatal("Release recycled the original System")
	}
}

// Pool traffic from many goroutines, each on its own clone: exercised under
// -race in CI (internal/model is in the race-parallel job).
func TestPoolConcurrentUse(t *testing.T) {
	_, _, sys := genSpreadSystem(41, 50, 300, 1)
	sys.WarmAdjacency()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := randx.New(uint64(g) + 1)
			for i := 0; i < 50; i++ {
				c := sys.ClonePooled()
				c.MarkRead(int(rng.Intn(c.NumTags())))
				k := CompileLocal(c, nil, rng.Perm(c.NumReaders())[:20], nil, 0)
				e := k.Eval()
				for _, l := range k.LocalIDs() {
					if rng.Bool(0.5) {
						e.Push(l)
					}
					_ = e.Weight()
				}
				k.Release()
				c.Release()
			}
		}(g)
	}
	wg.Wait()
}
