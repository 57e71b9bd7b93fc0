package core

import (
	"runtime"
	"testing"

	"rfidsched/internal/model"
	"rfidsched/internal/randx"
)

// Determinism property tests for the parallel solvers: PTAS and ExactMCS
// must return bit-identical results at every worker count, including under
// read churn and fault masks.

var detWorkerCounts = []int{0, 1, 2, 8, runtime.NumCPU()}

// churn marks a random quarter of the tags read and a random 15% of the
// readers down, as the mwfs differential harness does.
func churn(sys *model.System, rng *randx.RNG) {
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
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPTASParallelDeterminism(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		seed := uint64(5100 + trial*31)
		sys, _ := quickSystem(seed)
		rng := randx.New(seed ^ 0xbeef)
		churn(sys, rng)

		ref := NewPTAS()
		refSet, err := ref.OneShot(sys)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range detWorkerCounts {
			p := NewPTAS()
			p.Workers = w
			got, err := p.OneShot(sys)
			if err != nil {
				t.Fatal(err)
			}
			if !sameSet(refSet, got) {
				t.Fatalf("trial %d: PTAS Workers=%d returned %v, sequential %v", trial, w, got, refSet)
			}
			if p.LastShift != ref.LastShift {
				t.Fatalf("trial %d: PTAS Workers=%d winning shift %v, sequential %v", trial, w, p.LastShift, ref.LastShift)
			}
			if p.LastEvals != ref.LastEvals {
				t.Fatalf("trial %d: PTAS Workers=%d evals %d, sequential %d", trial, w, p.LastEvals, ref.LastEvals)
			}
		}
	}
}

// TestMCSSolverWorkersDeterminism drives full covering-schedule runs of the
// PTAS through the MCSOptions.SolverWorkers plumbing: same schedule length,
// same total, slot for slot, at every worker count.
func TestMCSSolverWorkersDeterminism(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		seed := uint64(7300 + trial*13)
		run := func(workers int) *MCSResult {
			sys, _ := quickSystem(seed)
			res, err := RunMCS(sys, NewPTAS(), MCSOptions{
				SolverWorkers: workers, RecordSlots: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		ref := run(0)
		for _, w := range detWorkerCounts {
			got := run(w)
			if got.Size != ref.Size || got.TotalRead != ref.TotalRead {
				t.Fatalf("trial %d: SolverWorkers=%d gave %d slots/%d read, sequential %d/%d",
					trial, w, got.Size, got.TotalRead, ref.Size, ref.TotalRead)
			}
			for s := range ref.Slots {
				if !sameSet(ref.Slots[s].Active, got.Slots[s].Active) {
					t.Fatalf("trial %d: SolverWorkers=%d slot %d active %v, sequential %v",
						trial, w, s, got.Slots[s].Active, ref.Slots[s].Active)
				}
			}
		}
	}
}

func TestExactMCSParallelDeterminism(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		seed := uint64(40 + trial)
		sys := tinyInstance(t, seed)
		if trial%2 == 1 {
			// Pre-read churn: the BFS must agree from non-empty start states
			// too. (No down-mask churn here — ExactMCS enumerates geometry,
			// and killing readers can legitimately make instances trivial.)
			rng := randx.New(seed ^ 0xd00d)
			for tg := 0; tg < sys.NumTags(); tg++ {
				if rng.Bool(0.3) {
					sys.MarkRead(tg)
				}
			}
		}
		ref, refErr := ExactMCS{}.Solve(sys)
		for _, w := range detWorkerCounts {
			got, err := ExactMCS{Workers: w}.Solve(sys)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("trial %d: Workers=%d err=%v, sequential err=%v", trial, w, err, refErr)
			}
			if got != ref {
				t.Fatalf("trial %d: ExactMCS Workers=%d = %d, sequential = %d", trial, w, got, ref)
			}
		}
	}
}
