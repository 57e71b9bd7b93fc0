package model

import (
	"testing"

	"rfidsched/internal/randx"
)

// Differential tests: WeightEval must agree bit-for-bit with the brute-force
// weightAndCovered on every reachable state — arbitrary activation sets,
// read churn, fault masks and resets.

// evalActive returns the evaluator's current set as a sorted []int.
func evalActive(e *WeightEval) []int { return e.AppendActive(nil) }

// checkAgainstBrute asserts the evaluator matches the brute force for its
// current set, and that MarginalGain matches MarginalWeight for a probe.
func checkAgainstBrute(t *testing.T, sys *System, e *WeightEval, probe int, ctx string) {
	t.Helper()
	X := evalActive(e)
	if got, want := e.Weight(), sys.Weight(X); got != want {
		t.Fatalf("%s: eval.Weight()=%d brute=%d set=%v", ctx, got, want, X)
	}
	if probe >= 0 && probe < sys.NumReaders() && !e.Active(probe) {
		if got, want := e.MarginalGain(probe), sys.MarginalWeight(X, probe); got != want {
			t.Fatalf("%s: MarginalGain(%d)=%d MarginalWeight=%d set=%v", ctx, probe, got, want, X)
		}
	}
}

// TestWeightEvalDifferentialRandomOps drives 1k random operation sequences —
// Add, Remove, MarkRead, SetReaderDown/up, ResetReads —
// against randomized deployments and asserts the evaluator never diverges
// from the brute force after any single operation.
func TestWeightEvalDifferentialRandomOps(t *testing.T) {
	const sequences = 1000
	for seq := 0; seq < sequences; seq++ {
		seed := uint64(7000 + seq)
		rng := randx.New(seed)
		n := 5 + rng.Intn(12)
		m := 20 + rng.Intn(80)
		sys := genSystem(seed, n, m)
		e := NewWeightEval(sys)

		ops := 12 + rng.Intn(20)
		for op := 0; op < ops; op++ {
			switch k := rng.Intn(10); {
			case k < 4: // Add (biased: sets should grow)
				e.Add(rng.Intn(n))
			case k < 6:
				e.Remove(rng.Intn(n))
			case k < 8:
				sys.MarkRead(rng.Intn(m))
			case k < 9:
				v := rng.Intn(n)
				sys.SetReaderDown(v, !sys.ReaderDown(v))
			default:
				if rng.Bool(0.1) {
					sys.ResetReads()
				}
			}
			checkAgainstBrute(t, sys, e, rng.Intn(n), "random-ops")
		}
		e.Close()
	}
}

// TestWeightEvalDownMaskEquivalence crashes and recovers readers while the
// set is held fixed; the evaluator must track the brute force through every
// transition, including readers added while already down.
func TestWeightEvalDownMaskEquivalence(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		seed := uint64(5400 + trial)
		rng := randx.New(seed)
		sys := genSystem(seed, 12, 70)

		// Pre-crash some readers, then attach and add everything.
		for v := 0; v < sys.NumReaders(); v++ {
			if rng.Bool(0.25) {
				sys.SetReaderDown(v, true)
			}
		}
		e := NewWeightEval(sys)
		for _, v := range genSet(sys, seed) {
			e.Add(v)
		}
		checkAgainstBrute(t, sys, e, rng.Intn(sys.NumReaders()), "initial-down")

		for i := 0; i < 10; i++ {
			v := rng.Intn(sys.NumReaders())
			sys.SetReaderDown(v, !sys.ReaderDown(v))
			if rng.Bool(0.3) {
				sys.MarkRead(rng.Intn(sys.NumTags()))
			}
			checkAgainstBrute(t, sys, e, rng.Intn(sys.NumReaders()), "down-churn")
		}
		e.Close()
	}
}

// TestWeightEvalDetach verifies Close stops notifications: a detached
// evaluator's weight stays stale by design while the system moves on.
func TestWeightEvalDetach(t *testing.T) {
	sys := genSystem(42, 8, 50)
	e := NewWeightEval(sys)
	for v := 0; v < sys.NumReaders(); v++ {
		e.Add(v)
	}
	if len(sys.evals) != 1 {
		t.Fatalf("attached evals = %d, want 1", len(sys.evals))
	}
	e.Close()
	if len(sys.evals) != 0 {
		t.Fatalf("evals after Close = %d, want 0", len(sys.evals))
	}
	w := e.Weight()
	for tg := 0; tg < sys.NumTags(); tg++ {
		sys.MarkRead(tg)
	}
	if e.Weight() != w {
		t.Fatalf("closed evaluator moved: %d -> %d", w, e.Weight())
	}
	e.Close() // double Close is a no-op
}

// TestWeightEvalResetAndReuse exercises Reset plus continued use.
func TestWeightEvalResetAndReuse(t *testing.T) {
	sys := genSystem(77, 10, 60)
	e := NewWeightEval(sys)
	defer e.Close()
	for _, v := range genSet(sys, 77) {
		e.Add(v)
	}
	e.Reset()
	if e.Weight() != 0 || e.Len() != 0 {
		t.Fatalf("Reset left weight=%d len=%d", e.Weight(), e.Len())
	}
	for _, v := range genSet(sys, 78) {
		e.Add(v)
	}
	checkAgainstBrute(t, sys, e, 3, "post-reset")
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
