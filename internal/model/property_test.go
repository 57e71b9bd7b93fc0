package model

import (
	"testing"
	"testing/quick"

	"rfidsched/internal/geom"
	"rfidsched/internal/randx"
)

// Property-based tests on the system model: random deployments generated
// from quick's seeds, invariants from the paper's definitions checked on
// random activation sets.

// genSystem builds a random small system from a seed.
func genSystem(seed uint64, n, m int) *System {
	rng := randx.New(seed)
	readers := make([]Reader, n)
	for i := range readers {
		R := 2 + rng.Float64()*10
		readers[i] = Reader{
			Pos:            geom.Pt(rng.Float64()*60, rng.Float64()*60),
			InterferenceR:  R,
			InterrogationR: 0.3*R + rng.Float64()*0.7*R,
		}
	}
	tags := make([]Tag, m)
	for i := range tags {
		tags[i] = Tag{Pos: geom.Pt(rng.Float64()*60, rng.Float64()*60)}
	}
	sys, err := NewSystem(readers, tags)
	if err != nil {
		panic(err)
	}
	return sys
}

// genSet derives a random activation set from a seed.
func genSet(sys *System, seed uint64) []int {
	rng := randx.New(seed ^ 0xabcdef)
	var X []int
	for v := 0; v < sys.NumReaders(); v++ {
		if rng.Bool(0.3) {
			X = append(X, v)
		}
	}
	return X
}

// Weight is bounded by the unread tag count and non-negative.
func TestPropWeightBounds(t *testing.T) {
	f := func(seed uint64) bool {
		sys := genSystem(seed, 12, 80)
		X := genSet(sys, seed)
		w := sys.Weight(X)
		return w >= 0 && w <= sys.NumTags()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A singleton is always feasible and its weight equals its unread coverage.
func TestPropSingletonWeight(t *testing.T) {
	f := func(seed uint64, idx uint8) bool {
		sys := genSystem(seed, 10, 60)
		v := int(idx) % sys.NumReaders()
		if !sys.IsFeasible([]int{v}) {
			return false
		}
		return sys.Weight([]int{v}) == sys.SingletonWeight(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Weight of a feasible set is subadditive in its elements: w(X) is at most
// the sum of singleton weights (each tag counted at most once somewhere).
func TestPropWeightSubadditive(t *testing.T) {
	f := func(seed uint64) bool {
		sys := genSystem(seed, 12, 80)
		X := genSet(sys, seed)
		sum := 0
		for _, v := range X {
			sum += sys.SingletonWeight(v)
		}
		return sys.Weight(X) <= sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Weight is permutation invariant (sets, not sequences).
func TestPropWeightPermutationInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		sys := genSystem(seed, 12, 80)
		X := genSet(sys, seed)
		if len(X) < 2 {
			return true
		}
		w1 := sys.Weight(X)
		rev := make([]int, len(X))
		for i, v := range X {
			rev[len(X)-1-i] = v
		}
		return sys.Weight(rev) == w1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Feasibility is closed under subsets.
func TestPropFeasibilitySubsetClosed(t *testing.T) {
	f := func(seed uint64) bool {
		sys := genSystem(seed, 12, 20)
		X := genSet(sys, seed)
		if !sys.IsFeasible(X) {
			return true
		}
		// Every prefix subset must stay feasible.
		for k := 0; k <= len(X); k++ {
			if !sys.IsFeasible(X[:k]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Reading tags never increases any weight.
func TestPropWeightMonotoneInUnread(t *testing.T) {
	f := func(seed uint64, tag uint8) bool {
		sys := genSystem(seed, 10, 60)
		X := genSet(sys, seed)
		before := sys.Weight(X)
		sys.MarkRead(int(tag) % sys.NumTags())
		after := sys.Weight(X)
		return after <= before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Covered() and Weight() always agree, and covered tags are unique and
// unread.
func TestPropCoveredConsistent(t *testing.T) {
	f := func(seed uint64) bool {
		sys := genSystem(seed, 12, 80)
		// Randomly pre-read some tags.
		rng := randx.New(seed + 1)
		for t := 0; t < sys.NumTags(); t++ {
			if rng.Bool(0.3) {
				sys.MarkRead(t)
			}
		}
		X := genSet(sys, seed)
		cov := sys.Covered(X, nil)
		if len(cov) != sys.Weight(X) {
			return false
		}
		seen := map[int32]bool{}
		for _, tg := range cov {
			if seen[tg] || sys.IsRead(int(tg)) {
				return false
			}
			seen[tg] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Collisions() partitions unread covered tags: WellCovered + RRcTags equals
// the number of unread tags under at least one active interrogation region
// minus those lost to unclean readers.
func TestPropCollisionsConsistent(t *testing.T) {
	f := func(seed uint64) bool {
		sys := genSystem(seed, 12, 80)
		X := genSet(sys, seed)
		st := sys.Collisions(X)
		if st.WellCovered != sys.Weight(X) {
			return false
		}
		if st.Activated != len(X) {
			return false
		}
		return st.RTcReaders >= 0 && st.RTcReaders <= len(X) && st.RRcTags >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Multi-channel weight with all readers on one channel equals plain weight;
// with every reader on its own channel, RTc vanishes so weight can only
// grow or stay equal.
func TestPropChanneledWeightBrackets(t *testing.T) {
	f := func(seed uint64) bool {
		sys := genSystem(seed, 12, 80)
		X := genSet(sys, seed)
		same := make([]int, len(X))
		w1 := sys.WeightChanneled(X, same)
		if w1 != sys.Weight(X) {
			return false
		}
		distinct := make([]int, len(X))
		for i := range distinct {
			distinct[i] = i
		}
		return sys.WeightChanneled(X, distinct) >= w1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Clone equivalence: any operation sequence yields identical weights on the
// clone.
func TestPropCloneEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		sys := genSystem(seed, 10, 50)
		rng := randx.New(seed + 2)
		for i := 0; i < 10; i++ {
			sys.MarkRead(rng.Intn(sys.NumTags()))
		}
		c := sys.Clone()
		X := genSet(sys, seed)
		return sys.Weight(X) == c.Weight(X) &&
			sys.UnreadCount() == c.UnreadCount() &&
			sys.UnreadCoverableCount() == c.UnreadCoverableCount()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSingletonWeightCounterConsistency pins the O(1) singleton counter to
// the definitional scan under read churn, resets, clones, and down masks.
func TestSingletonWeightCounterConsistency(t *testing.T) {
	sys := genSystem(123, 12, 80)
	rng := randx.New(321)
	scan := func(s *System, v int) int {
		if s.ReaderDown(v) {
			return 0
		}
		w := 0
		for _, tg := range s.TagsOf(v) {
			if !s.IsRead(int(tg)) {
				w++
			}
		}
		return w
	}
	check := func(s *System, ctx string) {
		t.Helper()
		for v := 0; v < s.NumReaders(); v++ {
			if got, want := s.SingletonWeight(v), scan(s, v); got != want {
				t.Fatalf("%s: SingletonWeight(%d)=%d scan=%d", ctx, v, got, want)
			}
		}
	}
	check(sys, "fresh")
	for i := 0; i < 40; i++ {
		sys.MarkRead(rng.Intn(sys.NumTags()))
	}
	sys.SetReaderDown(3, true)
	check(sys, "churned")
	c := sys.Clone()
	c.MarkRead(0)
	check(c, "clone")
	sys.ResetReads()
	check(sys, "reset")
}
