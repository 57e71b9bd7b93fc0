package core_test

import (
	"slices"
	"testing"

	"rfidsched/internal/core"
	"rfidsched/internal/deploy"
	"rfidsched/internal/graph"
	"rfidsched/internal/model"
	"rfidsched/internal/mwfs"
	"rfidsched/internal/verify"
)

// Certificate of the paper's one-shot guarantees at paper scale: the paper
// deployment at 120 readers x 2400 tags (side 100, lambda_R = 12,
// lambda_r = 5, deploy seed 2011, the mcs-paper benchmark's geometry) and
// its exact first-slot optimum, found by the sequential branch and bound
// over all readers.
const (
	paperOPT = 1004
	// paperOPTNodes is the sequential search's node count. A tighter bound
	// may lower it; it must never grow.
	paperOPTNodes = 29849012
	paperRho      = 1.25
)

var paperOPTSet = []int{6, 11, 14, 15, 16, 21, 26, 28, 31, 40, 41, 46, 47, 53, 57, 60, 66, 69, 72, 84, 90, 91, 93, 94, 101, 107, 112, 114, 118}

func paperScaleSystem(t *testing.T) *model.System {
	t.Helper()
	cfg := deploy.Paper(2011, 12, 5)
	cfg.NumReaders, cfg.NumTags = 120, 2400
	sys, err := deploy.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestPaperScaleGuarantees checks the committed optimum with the
// independent verifier, then the first slot of Algorithms 2 and 3 against
// Theorem 4's w(OPT)/rho.
func TestPaperScaleGuarantees(t *testing.T) {
	sys := paperScaleSystem(t)
	opt := &core.MCSResult{
		Size:       1,
		TotalRead:  paperOPT,
		Incomplete: true,
		Slots:      []core.SlotRecord{{Active: paperOPTSet, TagsRead: paperOPT}},
	}
	if _, err := verify.Schedule(sys, opt, verify.Options{RequireFeasible: true}); err != nil {
		t.Fatalf("verifier rejects OPT's set: %v", err)
	}

	g := graph.FromSystem(sys)
	for _, sched := range []model.OneShotScheduler{core.NewGrowth(g, paperRho), core.NewDistributed(g, paperRho)} {
		X, err := sched.OneShot(sys)
		if err != nil {
			t.Fatal(err)
		}
		if !sys.IsFeasible(X) {
			t.Fatalf("%s: infeasible first slot", sched.Name())
		}
		if w := sys.Weight(X); float64(w)*paperRho < paperOPT {
			t.Errorf("%s: w(X) = %d below OPT/rho = %.1f", sched.Name(), w, paperOPT/paperRho)
		}
	}
}

// TestPTASPaperScale checks the PTAS's first slot against Theorem 2's
// (1-1/k)^2 w(OPT), and pins how many of its dense-square solves run out of
// their root's share of the evaluation budget, and the weight it reaches
// through that accounting. A faster inner search truncates fewer squares; a
// count that grows means the search got slower.
func TestPTASPaperScale(t *testing.T) {
	sys := paperScaleSystem(t)
	for _, workers := range []int{1, 2} {
		p := core.NewPTAS()
		p.Workers = workers
		X, err := p.OneShot(sys)
		if err != nil {
			t.Fatal(err)
		}
		if !sys.IsFeasible(X) {
			t.Fatalf("workers=%d: infeasible first slot", workers)
		}
		bound := (1 - 1/float64(p.K)) * (1 - 1/float64(p.K)) * paperOPT
		if w := sys.Weight(X); float64(w) < bound {
			t.Errorf("workers=%d: w(X) = %d below (1-1/k)^2 OPT = %.1f", workers, w, bound)
		}
		if p.LastTruncated != 1 {
			t.Errorf("workers=%d: %d truncated inner solves, want 1", workers, p.LastTruncated)
		}
		if w := sys.Weight(X); w != 994 {
			t.Errorf("workers=%d: one-shot weight %d, want 994", workers, w)
		}
	}
}

// TestPaperScaleOPT recomputes the committed optimum. It takes about a
// second on one core, so it is skipped under -short and under the race
// detector.
func TestPaperScaleOPT(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("paper-scale exact search: skipped under -short and -race")
	}
	sys := paperScaleSystem(t)
	all := make([]int, sys.NumReaders())
	for i := range all {
		all[i] = i
	}
	res := mwfs.Solve(sys, all, mwfs.Options{MaxNodes: 2 * paperOPTNodes, Workers: 1})
	if !res.Exact || res.Weight != paperOPT || !slices.Equal(res.Set, paperOPTSet) {
		t.Fatalf("exact search: weight %d (exact %t) set %v, want %d %v", res.Weight, res.Exact, res.Set, paperOPT, paperOPTSet)
	}
	if res.Nodes > paperOPTNodes {
		t.Errorf("exact search expanded %d nodes, more than the committed %d", res.Nodes, paperOPTNodes)
	}
}
