package core

import (
	"fmt"
	"math"
	"slices"

	"rfidsched/internal/distnet"
	"rfidsched/internal/fault"
	"rfidsched/internal/graph"
	"rfidsched/internal/model"
	"rfidsched/internal/mwfs"
	"rfidsched/internal/obs"
)

// Distributed is Algorithm 3: the fully distributed One-Shot scheduler
// without location information (Section V-B). Every reader runs the same
// node program over the interference-graph radio topology (package
// distnet steps a reader only when it has mail or a phase boundary is due):
//
//	Step 1  Each White reader collects (id, weight, adjacency) records from
//	        its (2c+2)-hop neighborhood by flooding.
//	Step 2  A reader that holds the maximum weight among all White readers
//	        within 2c+2 hops becomes a coordinator ("head") and computes
//	        the local solutions Γ_0, Γ_1, ... with the same growth rule as
//	        Algorithm 2 (stop when w(Γ_{r+1}) < ρ·w(Γ_r)), capped at c.
//	Step 3  The head announces RESULT(Γ_r̄) within r̄+1+2c+2 hops; readers in
//	        Γ_r̄ turn Red (activated), other readers of N(head)^{r̄+1} turn
//	        Black (removed), everyone else stays White and the protocol
//	        repeats on the surviving subgraph.
//
// Ties on weight are broken by reader id so that coordinator election is a
// total order — the paper's plain ">=" would elect two adjacent equal-
// weight heads. Simultaneous heads are necessarily more than 2c+2 hops
// apart in the surviving subgraph, which (as in the paper's Figure 5
// argument) keeps their local solutions mutually feasible; Theorem 6 then
// gives w(X) >= w(OPT)/ρ.
//
// The epoch structure is synchronous: 2c+2 rounds of information flooding,
// one compute-and-announce round, 3c+3 (>= r̄+1+2c+2) rounds of result
// flooding, then a decision round. Deciding readers park; the rest start
// the next epoch. Progress is guaranteed because every epoch has at least
// one head (the global maximum among White readers) and a head always
// leaves the White set. Floods broadcast uint64 handles into the call's
// record and announcement tables (see alg3Call).
type Distributed struct {
	G   *graph.Graph
	Rho float64

	// C is the control parameter c = c(ρ) bounding the growth radius. 0
	// derives it from the Theorem 5 argument: w(Γ_r) >= ρ^r·w(v) while
	// w(Γ_r) <= |ball|·w(v) <= n·w(v), so r̄ <= log_ρ(n).
	C int

	// SolverNodes caps each local MWFS branch-and-bound (0 = default).
	SolverNodes int

	// MaxRounds caps the protocol run; 0 derives a safe bound. Exceeding it
	// returns an error from OneShot.
	MaxRounds int

	// LossRate, when positive, injects independent per-message loss into
	// the radio network (failure injection for robustness studies): an
	// always-on loss event in the same plan as Faults. The
	// flooding phases are naturally redundant — records travel every path
	// of the ball — so moderate loss mostly costs nothing, but heavy loss
	// can split coordinator elections; OneShot reports the outcome
	// faithfully (possibly returning a set that must be checked against
	// IsFeasible, or a timeout error when nodes cannot converge).
	LossRate float64
	// LossSeed seeds the loss process (reproducible failures).
	LossSeed uint64

	// Faults scripts richer failure injection (crashes, partitions,
	// stragglers, duplication, reordering; see package fault) against the
	// protocol network; its tick axis is the protocol round. A scenario
	// with Seed 0 or no events inherits LossSeed so the whole failure
	// stream hangs off one knob. Combines with LossRate, which is folded
	// into the same plan as an always-on loss event.
	Faults *fault.Scenario

	// Strict makes OneShot verify the decided set against the interference
	// graph and error on dependence instead of returning it. Under severe
	// faults (e.g. a fully partitioned network) every node elects itself
	// head and turns Red, which is exactly the kind of silent garbage the
	// robustness contract forbids; Strict turns it into a checkable error
	// that Retrying can respond to.
	Strict bool

	// LastStats records network statistics of the most recent OneShot call
	// (rounds, messages). Diagnostic; not safe for concurrent use.
	LastStats *distnet.Stats

	// Tracer receives protocol-level trace events (see package obs): one
	// election_completed per OneShot call, plus per-message drop events
	// from the radio network under faults. nil disables tracing; like
	// LastStats, the call counter makes a traced scheduler not safe for
	// concurrent OneShot calls.
	Tracer obs.Tracer

	// Metrics, when non-nil, times each OneShot protocol execution into the
	// "span.election.seconds" histogram (see obs.StartSpan). Pure
	// observation, like Tracer; the MCS driver wires its own registry in
	// through SetMetrics.
	Metrics *obs.Registry

	// calls counts OneShot invocations, indexing election_completed
	// events so a trace orders the elections of one covering schedule.
	calls int
}

// NewDistributed builds Algorithm 3 with growth threshold rho on graph g.
func NewDistributed(g *graph.Graph, rho float64) *Distributed {
	if rho <= 1 {
		rho = 1.25
	}
	return &Distributed{G: g, Rho: rho}
}

// Name implements model.OneShotScheduler.
func (d *Distributed) Name() string { return "Alg3-Distributed" }

// SetMetrics routes span telemetry into reg — the hook core.RunMCS uses to
// extend MCSOptions.Metrics down into the protocol layer.
func (d *Distributed) SetMetrics(reg *obs.Registry) { d.Metrics = reg }

// ControlParameter returns the effective c.
func (d *Distributed) ControlParameter() int {
	if d.C > 0 {
		return d.C
	}
	n := d.G.N()
	if n < 2 {
		return 1
	}
	c := int(math.Log(float64(n))/math.Log(d.Rho)) + 1
	if c > 32 {
		c = 32
	}
	return c
}

// OneShot implements model.OneShotScheduler by executing the protocol.
func (d *Distributed) OneShot(sys *model.System) ([]int, error) {
	n := d.G.N()
	if n == 0 {
		return nil, nil
	}
	c := d.ControlParameter()
	epochLen := 5*c + 6
	maxRounds := d.MaxRounds
	if maxRounds <= 0 {
		maxRounds = epochLen * (n + 2)
	}

	// Node state is dense: three bitsets over reader ids per node, carved
	// out of one backing array. Each node's own record is fixed for the
	// whole call (the read state does not change while the protocol runs),
	// so it is built once here and flooded by its origin id.
	tables := &alg3Call{recs: make([]infoRec, n), results: make([][]resultMsg, n)}
	decisions := make([]int8, n)
	nodes := make([]distnet.Node, n)
	states := make([]alg3Node, n)
	w := (n + 63) / 64
	bits := make(bitset, 3*n*w)
	for id := 0; id < n; id++ {
		tables.recs[id] = infoRec{Weight: sys.SingletonWeight(id), Nbrs: d.G.Neighbors(id)}
		b := bits[3*id*w:]
		states[id] = alg3Node{
			id:          id,
			call:        tables,
			base:        sys,
			rho:         d.Rho,
			c:           c,
			epochLen:    epochLen,
			solverNodes: d.SolverNodes,
			decisions:   decisions,
			known:       b[0:w:w],
			seenResults: b[w : 2*w : 2*w],
			knownRed:    b[2*w : 3*w : 3*w],
		}
		nodes[id] = &states[id]
	}
	net := distnet.NewNetwork(d.G)
	if err := d.attachFaults(net); err != nil {
		return nil, err
	}
	if d.Tracer != nil {
		net.WithTracer(d.Tracer)
	}
	call := d.calls
	d.calls++
	electionSpan := obs.StartSpan(d.Metrics, obs.SpanElection)
	stats, err := net.Run(nodes, maxRounds)
	electionSpan.End()
	d.LastStats = stats
	if err != nil {
		return nil, fmt.Errorf("core: distributed protocol: %w", err)
	}

	var X []int
	for id, dec := range decisions {
		if dec == decidedRed {
			X = append(X, id)
		}
	}
	slices.Sort(X)
	if d.Tracer != nil {
		// Emitted before the Strict feasibility check: the election did
		// complete, even when it decided a dependent set the check rejects.
		d.Tracer.Emit(obs.EvElectionCompleted(call, stats.Rounds, stats.MessagesSent, X))
	}
	if d.Strict && !d.G.IsIndependentSet(X) {
		return nil, fmt.Errorf("core: distributed protocol decided a dependent set of %d readers (faults split the coordinator election)", len(X))
	}
	return X, nil
}

// attachFaults compiles the LossRate knob and the Faults scenario into one
// plan on net. No faults configured leaves net untouched.
func (d *Distributed) attachFaults(net *distnet.Network) error {
	var sc fault.Scenario
	if d.Faults != nil {
		sc = fault.Scenario{Seed: d.Faults.Seed, Events: slices.Clone(d.Faults.Events)}
	}
	if sc.Seed == 0 || sc.IsZero() {
		sc.Seed = d.LossSeed
	}
	if d.LossRate > 0 {
		sc.Events = append(sc.Events, fault.Loss(d.LossRate, 0, fault.Forever))
	}
	if sc.IsZero() {
		return nil
	}
	plan, err := sc.Compile(d.G.N())
	if err != nil {
		return fmt.Errorf("core: fault scenario: %w", err)
	}
	net.WithFaults(plan)
	return nil
}

const (
	decidedWhite int8 = iota
	decidedRed
	decidedBlack
)

// infoRec is the Step-1 flooding payload: one-shot singleton weight and
// radio adjacency of its origin. Its handle is the origin id.
type infoRec struct {
	Weight int
	Nbrs   []int32
}

// resultMsg is the Step-3 announcement: the head's committed local MWFS and
// the neighborhood it removes.
type resultMsg struct {
	Gamma   []int
	Removed []int
}

// announceBit marks an announcement handle: announceBit | k<<32 | head
// names the head's k-th announcement of the call. Any other handle is an
// info record's origin id.
const announceBit = 1 << 63

// alg3Call holds the payloads of one OneShot call, which the flooded
// handles index. Records are immutable for the call; each head appends to
// its own announcement history and never rewrites it. A head that decided
// but missed its decision round is elected again and announces twice
// (ROADMAP item 7), and a straggler may still hold the first announcement,
// so a handle names one announcement, never "the head's latest".
type alg3Call struct {
	recs    []infoRec     // by origin id
	results [][]resultMsg // by head, append-only
}

// announce appends res to head's history and returns its handle.
func (c *alg3Call) announce(head int, res resultMsg) uint64 {
	k := len(c.results[head])
	c.results[head] = append(c.results[head], res)
	return announceBit | uint64(k)<<32 | uint64(head)
}

// result resolves an announcement handle.
func (c *alg3Call) result(h uint64) *resultMsg {
	return &c.results[uint32(h)][h>>32&0x7fffffff]
}

type alg3Node struct {
	id          int
	call        *alg3Call
	base        *model.System // read-only
	rho         float64
	c           int
	epochLen    int
	solverNodes int
	decisions   []int8

	state int8

	// heard lists the origins of the records received this epoch, own
	// first; heard[flooded:] still has to be relayed. known marks them.
	heard        []int
	flooded      int
	known        bitset
	seenResults  bitset   // heads whose announcement arrived this epoch
	freshResults []uint64 // announcement handles still to relay

	// knownRed accumulates, across epochs, every reader this node has
	// heard committed (Red) in announcements. A head passes them to its
	// local solver as context so its Γ is judged by marginal weight —
	// interrogation overlap with already-committed clusters is charged to
	// the new candidates. The announcement radius r̄+1+2c+2 guarantees the
	// relevant prior results were heard.
	knownRed bitset

	// out is the outbox buffer, reused every round: the network has
	// delivered a round's messages before it steps any node again.
	out []distnet.Message
}

// bitset is a set of reader ids packed 64 to a word.
type bitset []uint64

func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b bitset) add(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }

// Step implements distnet.Node.
func (nd *alg3Node) Step(round int, inbox []distnet.Message) ([]distnet.Message, int, bool) {
	re := round % nd.epochLen
	collect := 2*nd.c + 2

	if re == 0 {
		// New epoch: forget the previous epoch's view — the White set
		// shrank, so distances and weights must be re-collected.
		clear(nd.known)
		clear(nd.seenResults)
		nd.heard, nd.flooded = nd.heard[:0], 0
		nd.freshResults = nd.freshResults[:0]
		nd.learn(nd.id)
	}

	// Ingest.
	for _, m := range inbox {
		h := m.Payload
		if h&announceBit == 0 {
			if !nd.known.has(int(h)) {
				nd.learn(int(h))
			}
		} else if head := int(uint32(h)); !nd.seenResults.has(head) {
			nd.seenResults.add(head)
			nd.freshResults = append(nd.freshResults, h)
			nd.apply(nd.call.result(h))
		}
	}

	out := nd.out[:0]
	switch {
	case re < collect:
		// Step 1: flood info records.
		for _, o := range nd.heard[nd.flooded:] {
			out = append(out, nd.broadcast(uint64(o)))
		}
		nd.flooded = len(nd.heard)

	case re == collect:
		// Step 2: coordinator election and local computation.
		if nd.isHead() {
			res := nd.computeResult()
			nd.seenResults.add(nd.id)
			nd.apply(&res)
			out = append(out, nd.broadcast(nd.call.announce(nd.id, res)))
		}

	case re < nd.epochLen-1:
		// Step 3: flood announcements.
		for _, h := range nd.freshResults {
			out = append(out, nd.broadcast(h))
		}
		nd.freshResults = nd.freshResults[:0]

	default:
		// Decision round: Red/Black park, White continues into the next
		// epoch.
		if nd.state != decidedWhite {
			nd.decisions[nd.id] = nd.state
			return nil, 0, true
		}
	}
	nd.out = out
	return out, nd.wake(round, re), false
}

// wake returns the next round at which a Step with an empty inbox is not a
// no-op. Every Step that ingests a record or announcement in a flood phase
// relays it at once, so only the phase boundaries are due: the election,
// the decision round and the next epoch's start — plus the first
// announcement round when an announcement arrived before it could be
// relayed (a late or carried-over message).
func (nd *alg3Node) wake(round, re int) int {
	start, collect := round-re, 2*nd.c+2
	switch {
	case re < collect:
		return start + collect
	case re == collect && len(nd.freshResults) > 0:
		return round + 1
	case re < nd.epochLen-1:
		return start + nd.epochLen - 1
	}
	return start + nd.epochLen
}

// broadcast addresses handle h to every radio neighbor.
func (nd *alg3Node) broadcast(h uint64) distnet.Message {
	return distnet.Message{From: nd.id, To: distnet.All, Payload: h}
}

// learn records the info record of origin o, heard for the first time this
// epoch.
func (nd *alg3Node) learn(o int) {
	nd.known.add(o)
	nd.heard = append(nd.heard, o)
}

func (nd *alg3Node) apply(res *resultMsg) {
	for _, v := range res.Gamma {
		nd.knownRed.add(v)
	}
	if slices.Contains(res.Gamma, nd.id) {
		nd.state = decidedRed
	} else if slices.Contains(res.Removed, nd.id) {
		nd.state = decidedBlack
	}
}

// isHead reports whether this node's (weight, id) is maximal among every
// White node it heard from. Lower id wins weight ties.
func (nd *alg3Node) isHead() bool {
	mine := nd.call.recs[nd.id].Weight
	for _, o := range nd.heard {
		if w := nd.call.recs[o].Weight; w > mine || (w == mine && o < nd.id) {
			return false
		}
	}
	return true
}

// computeResult runs the Algorithm 2 growth rule on the locally collected
// White subgraph around this head. Feasibility comes only from conflict
// rows built out of the adjacency records this head collected by flooding —
// no global graph knowledge.
func (nd *alg3Node) computeResult() resultMsg {
	n := nd.base.NumReaders()
	var committed []int
	for v := 0; v < n; v++ {
		if nd.knownRed.has(v) {
			committed = append(committed, v)
		}
	}
	opts := mwfs.Options{MaxNodes: nd.solverNodes, Conflicts: nd.localConflicts(n), Context: committed}
	byID := make([]*infoRec, n)
	for _, o := range nd.heard {
		byID[o] = &nd.call.recs[o]
	}

	cur := mwfs.Solve(nd.base, []int{nd.id}, opts)
	r := 0
	for r < nd.c {
		ball := nd.localBall(byID, r+1)
		next := mwfs.Solve(nd.base, ball, opts)
		if float64(next.Weight) < nd.rho*float64(cur.Weight) {
			break
		}
		cur = next
		r++
	}
	return resultMsg{Gamma: cur.Set, Removed: nd.localBall(byID, r+1)}
}

// localConflicts packs the local White subgraph as mwfs conflict rows over
// n readers: row w has bit o whenever heard origin o lists heard reader w
// as a radio neighbor, plus every self bit.
func (nd *alg3Node) localConflicts(n int) []uint64 {
	stride := (n + 63) / 64
	conf := make(bitset, n*stride)
	for v := 0; v < n; v++ {
		conf[v*stride:].add(v)
	}
	for _, o := range nd.heard {
		for _, w := range nd.call.recs[o].Nbrs {
			if nd.known.has(int(w)) {
				conf[int(w)*stride:].add(o)
			}
		}
	}
	return conf
}

// localBall is BFS to radius r on the local White subgraph from this node;
// byID indexes the heard records by origin.
func (nd *alg3Node) localBall(byID []*infoRec, r int) []int {
	dist := make([]int, len(byID))
	for i := range dist {
		dist[i] = -1
	}
	dist[nd.id] = 0
	out := []int{nd.id}
	for q := 0; q < len(out); q++ {
		u := out[q]
		if dist[u] >= r {
			continue
		}
		for _, w := range byID[u].Nbrs {
			if byID[w] != nil && dist[w] < 0 {
				dist[w] = dist[u] + 1
				out = append(out, int(w))
			}
		}
	}
	slices.Sort(out)
	return out
}
