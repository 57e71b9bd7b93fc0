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

// Certificates of the paper's one-shot guarantees at paper scale: the paper
// deployment at 120 readers x 2400 tags (side 100, lambda_R = 12,
// lambda_r = 5) on three deploy seeds, 2011 being the mcs-paper benchmark's
// geometry, and the exact first-slot optimum of each, found by the branch
// and bound over all readers.
const paperRho = 1.25

// paperCert is one certified deployment: its exact optimum, the optimal
// set, and the search's node count. A tighter bound may lower the count; it
// must never grow.
type paperCert struct {
	seed  uint64
	opt   int
	set   []int
	nodes int
}

var paperCerts = []paperCert{
	{seed: 2011, opt: 1004, nodes: 61716, set: []int{6, 11, 14, 15, 16, 21, 26, 28, 31, 40, 41, 46, 47, 53, 57, 60, 66, 69, 72, 84, 90, 91, 93, 94, 101, 107, 112, 114, 118}},
	{seed: 7, opt: 974, nodes: 95433, set: []int{4, 10, 14, 15, 18, 20, 22, 24, 25, 28, 29, 33, 36, 37, 38, 42, 47, 49, 65, 68, 70, 71, 75, 77, 78, 81, 83, 84, 87, 88, 90, 99, 103, 112, 116, 118}},
	{seed: 37, opt: 976, nodes: 173460, set: []int{6, 9, 10, 14, 23, 24, 29, 39, 42, 53, 63, 65, 66, 67, 70, 74, 75, 79, 84, 86, 96, 97, 100, 101, 102, 103, 107, 110, 113, 114}},
}

func paperScaleSystem(t *testing.T, seed uint64) *model.System {
	t.Helper()
	cfg := deploy.Paper(seed, 12, 5)
	cfg.NumReaders, cfg.NumTags = 120, 2400
	sys, err := deploy.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestPaperScaleGuarantees checks each committed optimum with the
// independent verifier, then the first slot of Algorithms 2 and 3 against
// Theorem 4's w(OPT)/rho.
func TestPaperScaleGuarantees(t *testing.T) {
	for _, c := range paperCerts {
		sys := paperScaleSystem(t, c.seed)
		opt := &core.MCSResult{
			Size:       1,
			TotalRead:  c.opt,
			Incomplete: true,
			Slots:      []core.SlotRecord{{Active: c.set, TagsRead: c.opt}},
		}
		if _, err := verify.Schedule(sys, opt, verify.Options{RequireFeasible: true}); err != nil {
			t.Fatalf("seed %d: verifier rejects OPT's set: %v", c.seed, err)
		}

		g := graph.FromSystem(sys)
		for _, sched := range []model.OneShotScheduler{core.NewGrowth(g, paperRho), core.NewDistributed(g, paperRho)} {
			X, err := sched.OneShot(sys)
			if err != nil {
				t.Fatal(err)
			}
			if !sys.IsFeasible(X) {
				t.Fatalf("seed %d, %s: infeasible first slot", c.seed, sched.Name())
			}
			if w := sys.Weight(X); float64(w)*paperRho < float64(c.opt) {
				t.Errorf("seed %d, %s: w(X) = %d below OPT/rho = %.1f", c.seed, sched.Name(), w, float64(c.opt)/paperRho)
			}
		}
	}
}

// TestPTASPaperScale checks the PTAS's first slot on deploy seed 2011
// against Theorem 2's (1-1/k)^2 w(OPT), and pins how many of its
// dense-square solves run out of their root's share of the evaluation
// budget, and the weight it reaches through that accounting. With no
// truncated solve, the (1-1/k)^2 check is the theorem's proven bound; a
// count above 0 means the inner search got slower.
func TestPTASPaperScale(t *testing.T) {
	c := paperCerts[0]
	sys := paperScaleSystem(t, c.seed)
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
		bound := (1 - 1/float64(p.K)) * (1 - 1/float64(p.K)) * float64(c.opt)
		if w := sys.Weight(X); float64(w) < bound {
			t.Errorf("workers=%d: w(X) = %d below (1-1/k)^2 OPT = %.1f", workers, w, bound)
		}
		if p.LastTruncated != 0 {
			t.Errorf("workers=%d: %d truncated inner solves, want 0", workers, p.LastTruncated)
		}
		if w := sys.Weight(X); w != 994 {
			t.Errorf("workers=%d: one-shot weight %d, want 994", workers, w)
		}
	}
}

// TestPaperScaleOPT recomputes each committed optimum.
func TestPaperScaleOPT(t *testing.T) {
	for _, c := range paperCerts {
		sys := paperScaleSystem(t, c.seed)
		all := make([]int, sys.NumReaders())
		for i := range all {
			all[i] = i
		}
		res := mwfs.Solve(sys, all, mwfs.Options{MaxNodes: 2 * c.nodes})
		if !res.Exact || res.Weight != c.opt || !slices.Equal(res.Set, c.set) {
			t.Fatalf("seed %d: exact search: weight %d (exact %t) set %v, want %d %v", c.seed, res.Weight, res.Exact, res.Set, c.opt, c.set)
		}
		if res.Nodes > c.nodes {
			t.Errorf("seed %d: exact search expanded %d nodes, more than the committed %d", c.seed, res.Nodes, c.nodes)
		}
	}
}
