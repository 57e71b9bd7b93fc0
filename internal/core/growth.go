package core

import (
	"math"
	"slices"

	"rfidsched/internal/graph"
	"rfidsched/internal/model"
	"rfidsched/internal/mwfs"
)

// Growth is Algorithm 2: the centralized One-Shot scheduler that needs no
// location information — only the interference graph G (obtained by an RF
// site survey) and the ability to evaluate weights.
//
// The algorithm repeatedly (1) picks the reader v with maximum weight when
// activated alone, (2) grows local solutions Γ_0(v), Γ_1(v), ... where
// Γ_r(v) is a maximum weighted feasible scheduling set inside the r-hop
// ball N(v)^r, as long as the growth condition w(Γ_{r+1}) >= ρ·w(Γ_r)
// holds, (3) commits the last Γ_r and removes N(v)^{r+1} from the graph.
// Removing the (r+1)-ball — one hop more than the committed set can reach —
// guarantees the union of the committed sets is feasible, and Theorem 4
// gives w(X) >= w(OPT)/ρ. Theorem 3 bounds the growth radius by a constant
// c(ρ), which the implementation exposes via LastMaxRadius so tests can
// verify it.
type Growth struct {
	// G is the interference graph. The scheduler treats two readers as
	// compatible iff they are non-adjacent in G, never consulting geometry,
	// so a survey-estimated graph can be substituted for the true one.
	G *graph.Graph

	// Rho is the growth threshold ρ = 1+ε > 1. Smaller ε means a better
	// guarantee (1/ρ of optimal) at the price of larger local balls.
	Rho float64

	// MaxRadius hard-caps the growth radius r. 0 derives the cap from the
	// theorem bound log_ρ(#tags)+1, which the growth condition can never
	// exceed since w(Γ_r) >= ρ^r · w({v}) and weights are at most #tags.
	MaxRadius int

	// SolverNodes caps the branch-and-bound nodes per local MWFS
	// computation. 0 means the mwfs package default.
	SolverNodes int

	// Workers is passed through to every local MWFS solve (mwfs.Options.
	// Workers): values below 2 keep the sequential reference path. Results
	// are bit-identical either way; only wall-clock changes.
	Workers int

	// Deadline, when non-nil, bounds the call (anytime contract, DESIGN.md
	// §12). Every local MWFS solve inherits it; once it expires, each
	// remaining cluster degrades to its seed singleton {v} — feasible with
	// everything committed by the ball-separation argument (alive vertices
	// are ≥2 hops from every committed reader) and progress-making (seeds
	// are chosen for positive singleton weight) — and the polynomial
	// pruning pass still runs. An expired deadline therefore yields a
	// greedy-by-singleton feasible set, never an error. RunMCS installs a
	// fresh per-slot deadline through SetDeadline.
	Deadline *Deadline

	// LastMaxRadius records the largest growth radius r̄ used during the
	// most recent OneShot call (diagnostics / theorem tests). Not safe for
	// concurrent use.
	LastMaxRadius int

	// LastCoordinators records how many seed readers the most recent
	// OneShot call processed.
	LastCoordinators int

	// lastAnytime records whether the most recent OneShot was truncated by
	// the deadline; see Anytime.
	lastAnytime bool
}

// NewGrowth builds Algorithm 2 with growth threshold rho on graph g.
func NewGrowth(g *graph.Graph, rho float64) *Growth {
	if rho <= 1 {
		rho = 1.25
	}
	return &Growth{G: g, Rho: rho}
}

// Name implements model.OneShotScheduler.
func (gr *Growth) Name() string { return "Alg2-Growth" }

// SetWorkers implements the solver-worker plumbing used by
// MCSOptions.SolverWorkers and the CLIs.
func (gr *Growth) SetWorkers(w int) { gr.Workers = w }

// SetDeadline implements DeadlineSetter.
func (gr *Growth) SetDeadline(dl *Deadline) { gr.Deadline = dl }

// Anytime implements AnytimeReporter: true when the most recent OneShot
// was truncated by the deadline and returned a degraded (but feasible) set.
func (gr *Growth) Anytime() bool { return gr.lastAnytime }

// OneShot implements model.OneShotScheduler.
func (gr *Growth) OneShot(sys *model.System) ([]int, error) {
	n := gr.G.N()
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	maxR := gr.MaxRadius
	if maxR <= 0 {
		maxR = radiusBound(gr.Rho, sys.NumTags())
	}
	// Feasibility comes from the graph's own rows, never from geometry, so
	// a survey-estimated G is honoured exactly.
	conf, _ := gr.G.ConflictBits()

	gr.LastMaxRadius = 0
	gr.LastCoordinators = 0
	gr.lastAnytime = false
	var X []int
	for {
		v, w := maxAliveSingleton(sys, alive)
		if v < 0 || w == 0 {
			// No remaining reader can serve an unread tag; growing further
			// cannot add weight.
			break
		}
		gr.LastCoordinators++

		gamma, rBar := gr.growLocal(sys, alive, v, maxR, conf, X)
		if rBar > gr.LastMaxRadius {
			gr.LastMaxRadius = rBar
		}
		X = append(X, gamma...)

		// Remove N(v)^{r̄+1} computed in the surviving subgraph.
		for _, u := range ballAlive(gr.G, alive, v, rBar+1) {
			alive[u] = false
		}
	}
	// Pruning pass: local MWFS computations cannot see interrogation
	// overlaps BETWEEN clusters (two independent, non-adjacent readers can
	// still share an interrogation overlap when r_i > R_i/2), so late in a
	// covering schedule the union may pin such overlap tags under permanent
	// RRc. Dropping a reader whose removal increases the global weight is
	// free for a centralized algorithm and never hurts the 1/ρ guarantee
	// (weight only goes up).
	X = pruneByWeight(sys, X)
	return X, nil
}

// pruneByWeight greedily removes readers from X while doing so strictly
// increases w(X), the earliest position winning ties. X must hold distinct
// readers. It may hold readers that really interfere (a survey graph can
// miss edges), so the weight kernel is compiled with no conflict matrix,
// keeping every interference pair.
func pruneByWeight(sys *model.System, X []int) []int {
	cur := append([]int(nil), X...)
	k := model.CompileLocal(sys, nil, cur, nil, 0)
	defer k.Release()
	eval := k.Evals(1)[0]
	ids := make([]int32, len(cur))
	for i, v := range cur {
		ids[i] = k.Local(v)
	}
	curW := sys.Weight(cur)
	for {
		bestIdx, bestW := -1, curW
		leaveOneOut(eval, ids, 0, func(i, w int) {
			if w > bestW {
				bestIdx, bestW = i, w
			}
		})
		if bestIdx < 0 {
			return cur
		}
		cur = slices.Delete(cur, bestIdx, bestIdx+1)
		ids = slices.Delete(ids, bestIdx, bestIdx+1)
		curW = bestW
	}
}

// leaveOneOut calls visit(base+i, w) for every i in ascending order, where w
// is the weight with all of ids but ids[i] pushed onto e. Pushing one half
// and recursing into the other costs O(n log n) pushes for n ids instead of
// the O(n²) of pushing each leave-one-out set afresh.
func leaveOneOut(e *model.LocalEval, ids []int32, base int, visit func(i, w int)) {
	switch len(ids) {
	case 0:
		return
	case 1:
		visit(base, e.Weight())
		return
	}
	mid := len(ids) / 2
	for _, l := range ids[mid:] {
		e.Push(l)
	}
	leaveOneOut(e, ids[:mid], base, visit)
	for range ids[mid:] {
		e.Pop()
	}
	for _, l := range ids[:mid] {
		e.Push(l)
	}
	leaveOneOut(e, ids[mid:], base+mid, visit)
	for range ids[:mid] {
		e.Pop()
	}
}

// growLocal computes Γ_0..Γ_r̄ and returns the committed set and r̄. The
// readers already committed by earlier clusters are passed as solver
// context so the local objective is the marginal weight — overlap between
// clusters is charged where it belongs.
func (gr *Growth) growLocal(sys *model.System, alive []bool, v, maxR int, conf []uint64, committed []int) ([]int, int) {
	opts := mwfs.Options{MaxNodes: gr.SolverNodes, Workers: gr.Workers, Conflicts: conf, Context: committed, Deadline: gr.Deadline}
	cur := mwfs.Solve(sys, []int{v}, opts) // Γ_0 = {v}
	if cur.TimedOut {
		// Expired before Γ_0 could even be scored: degrade to the seed
		// singleton. It is feasible with the committed set (alive vertices
		// are at least two hops from every committed reader) and keeps the
		// cluster progress-making, which is all the anytime contract needs.
		gr.lastAnytime = true
		return []int{v}, 0
	}
	r := 0
	for r < maxR {
		if gr.Deadline.Expired() {
			gr.lastAnytime = true
			break // commit Γ_r as-is; no time to grow further
		}
		ball := ballAlive(gr.G, alive, v, r+1)
		next := mwfs.Solve(sys, ball, opts)
		if next.TimedOut {
			gr.lastAnytime = true
		}
		if float64(next.Weight) < gr.Rho*float64(cur.Weight) {
			break // growth condition violated: commit Γ_r
		}
		// A truncated next that still clears the growth condition is safe to
		// commit: it is feasible inside the ball and beats Γ_r by ρ.
		cur = next
		r++
	}
	return cur.Set, r
}

// ballAlive returns N(v)^r in the subgraph induced by alive vertices.
func ballAlive(g *graph.Graph, alive []bool, v, r int) []int {
	if !alive[v] {
		return nil
	}
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[v] = 0
	queue := []int32{int32(v)}
	out := []int{v}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if dist[u] >= r {
			continue
		}
		for _, w := range g.Neighbors(int(u)) {
			if alive[w] && dist[w] == -1 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
				out = append(out, int(w))
			}
		}
	}
	return out
}

// maxAliveSingleton returns the alive reader with maximum singleton weight
// (ties to the lowest index) and that weight; (-1, 0) if none alive.
func maxAliveSingleton(sys *model.System, alive []bool) (int, int) {
	best, bestW := -1, -1
	for v := 0; v < sys.NumReaders(); v++ {
		if !alive[v] {
			continue
		}
		if w := sys.SingletonWeight(v); w > bestW {
			best, bestW = v, w
		}
	}
	if best < 0 {
		return -1, 0
	}
	return best, bestW
}

// radiusBound returns the Theorem 3/5 style cap: since
// w(Γ_r) >= ρ^r·w({v}) >= ρ^r and no weight exceeds the tag count,
// r̄ <= log_ρ(m). One extra hop of slack absorbs rounding.
func radiusBound(rho float64, numTags int) int {
	if numTags < 2 {
		return 1
	}
	b := math.Log(float64(numTags))/math.Log(rho) + 1
	if b > 64 {
		return 64
	}
	return int(b)
}
