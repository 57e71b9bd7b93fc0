// Package distnet is the message-passing substrate for Algorithm 3: a
// synchronous (BSP-style) network of reader nodes. Each node runs its Step
// function once per round — the Steps of a round execute concurrently on a
// GOMAXPROCS-sized worker pool — and may send messages only to its neighbors
// in the interference graph; messages sent in round t are delivered at round
// t+1.
//
// The synchronous model matches the paper's setting (slotted time is
// already assumed for tag reading) and makes executions deterministic:
// every Step's outbox lands in its node's own result slot and delivery walks
// the slots in id order, so inboxes arrive sorted by sender and a seeded run
// always produces the same schedule regardless of goroutine interleaving or
// worker count.
//
// Failure injection is scripted through package fault (WithFaults): reader
// crashes stop a node from stepping and sending, partitions cut edge
// traffic, stragglers skip rounds, and probabilistic loss, duplication and
// reordering perturb delivery — all reproducibly from a scenario seed. The
// legacy WithLoss knob remains as a thin shim over a loss-only plan.
package distnet

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"rfidsched/internal/fault"
	"rfidsched/internal/graph"
	"rfidsched/internal/obs"
)

// Message is a payload in flight between adjacent nodes.
type Message struct {
	From, To int
	Payload  any
}

// Node is the per-reader protocol logic. Implementations receive the round
// number and this round's inbox and return messages to send (delivered next
// round). Returning done=true parks the node: Step is no longer called, and
// when every node is done the network halts.
//
// Buffers are recycled between rounds: the inbox is valid only for the
// duration of the Step call (copy messages out to keep them), and the
// network has finished reading a returned outbox before any node's next
// Step, so a node may reuse its outbox buffer from round to round.
type Node interface {
	Step(round int, inbox []Message) (outbox []Message, done bool)
}

// Stats summarizes one network run.
type Stats struct {
	Rounds        int
	MessagesSent  int
	MessagesLost  int // dropped by Bernoulli loss injection (subset of MessagesSent)
	MaxInboxSize  int
	ParkedAtRound []int // round at which each node declared done (-1 = never)

	// Fault telemetry (all zero without WithFaults).
	CrashedNodes       int // nodes removed by permanent fail-stop crashes
	PartitionedRounds  int // rounds during which at least one edge was cut
	PartitionDropped   int // messages dropped on cut edges
	DuplicatedMessages int // extra copies delivered by duplication faults
	StragglerSkips     int // (node, round) Steps skipped by straggle faults
	UndeliveredDown    int // messages addressed to parked or crashed nodes
}

// Network executes nodes over an interference-graph topology.
type Network struct {
	g *graph.Graph

	// plan scripts failure injection; nil runs fault-free.
	plan *fault.Plan

	// tracer receives msg_dropped events; nil traces nothing. Emission
	// happens in the single-threaded delivery phase, so event order is
	// deterministic for a fixed seed.
	tracer obs.Tracer
}

// NewNetwork builds a network with the given topology.
func NewNetwork(g *graph.Graph) *Network { return &Network{g: g} }

// WithFaults attaches a compiled fault plan (see package fault). The plan's
// tick axis is the round number. Returns the network for chaining.
func (n *Network) WithFaults(plan *fault.Plan) *Network {
	n.plan = plan
	return n
}

// WithTracer attaches a trace sink for per-message drop events (cause
// "down", "partition" or "loss" — the same taxonomy as the Stats counters
// UndeliveredDown / PartitionDropped / MessagesLost). Returns the network
// for chaining.
func (n *Network) WithTracer(tr obs.Tracer) *Network {
	n.tracer = tr
	return n
}

// WithLoss enables message-loss injection: every message is independently
// dropped with probability rate, drawn from draw (a seeded uniform [0,1)
// source keeps runs reproducible). Dropped messages still count in
// Stats.MessagesSent — they were transmitted, just not delivered — and are
// tallied in Stats.MessagesLost. Returns the network for chaining.
//
// WithLoss is a shim over WithFaults for the common single-knob case; new
// code wanting richer failure models should build a fault.Scenario.
func (n *Network) WithLoss(rate float64, draw func() float64) *Network {
	if rate <= 0 || draw == nil {
		return n
	}
	plan := fault.MustCompile(fault.Scenario{
		Events: []fault.Event{fault.Loss(rate, 0, fault.Forever)},
	}, n.g.N())
	plan.SetDraw(draw)
	return n.WithFaults(plan)
}

// Run drives the nodes until all are done (or permanently crashed) or
// maxRounds elapses. It returns an error if a node addresses a non-neighbor
// (a protocol bug: radios cannot reach beyond the interference range) or if
// maxRounds is exhausted with undone nodes.
//
// Under a fault plan: permanently crashed nodes are removed from the run
// (they can never park, so waiting for them would always time out); nodes
// in a crash-with-recovery window lose their pending inbox and skip Steps
// until the reboot; straggling nodes skip Steps but keep accumulating
// messages; messages over cut edges, to dark radios, or sacrificed to
// Bernoulli loss are dropped with per-cause telemetry. Parked nodes never
// receive new messages — their inboxes stay empty (see UndeliveredDown).
func (n *Network) Run(nodes []Node, maxRounds int) (*Stats, error) {
	if len(nodes) != n.g.N() {
		return nil, fmt.Errorf("distnet: %d nodes for %d-vertex topology", len(nodes), n.g.N())
	}
	stats := &Stats{ParkedAtRound: make([]int, len(nodes))}
	for i := range stats.ParkedAtRound {
		stats.ParkedAtRound[i] = -1
	}
	plan := n.plan
	done := make([]bool, len(nodes))   // parked by protocol decision
	failed := make([]bool, len(nodes)) // removed by permanent crash
	// Inboxes are double-buffered: once a round's Steps are done with
	// inboxes, delivery refills next, and the two swap.
	inboxes := make([][]Message, len(nodes))
	next := make([][]Message, len(nodes))
	results := make([]stepResult, len(nodes)) // by node id
	var stepping, stragglers []int
	var shuffled []Message
	remaining := len(nodes)

	for round := 0; remaining > 0; round++ {
		if round >= maxRounds {
			return stats, fmt.Errorf("distnet: %d nodes still running after %d rounds", remaining, maxRounds)
		}
		stats.Rounds = round + 1

		// Fault bookkeeping for this round (single-threaded, deterministic).
		if plan != nil {
			for id := range nodes {
				if !done[id] && !failed[id] && plan.PermanentlyDown(id, round) {
					failed[id] = true
					inboxes[id] = inboxes[id][:0]
					stats.CrashedNodes++
					remaining--
				}
			}
			if remaining == 0 {
				break
			}
			if plan.AnyCut(round) {
				stats.PartitionedRounds++
			}
		}
		crashedNow := func(id int) bool { return plan != nil && plan.Crashed(id, round) }

		stepping, stragglers = stepping[:0], stragglers[:0]
		for id := range nodes {
			if done[id] || failed[id] {
				continue
			}
			if crashedNow(id) {
				// Transient outage: the node is dark and its radio buffers
				// are lost; it resumes stepping after the scripted reboot.
				inboxes[id] = inboxes[id][:0]
				continue
			}
			if plan != nil && plan.Straggling(id, round) {
				// Alive but paused: the Step is skipped, the inbox kept.
				stats.StragglerSkips++
				stragglers = append(stragglers, id)
				continue
			}
			stepping = append(stepping, id)
		}
		stepAll(nodes, stepping, inboxes, results, round)

		for id := range next {
			next[id] = next[id][:0]
		}
		for _, id := range stragglers {
			next[id] = append(next[id], inboxes[id]...) // unread messages carry over
		}
		// Park first, deliver second: a message sent to a node that parked
		// this same round must not enqueue, regardless of id order.
		for _, id := range stepping {
			if l := len(inboxes[id]); l > stats.MaxInboxSize {
				stats.MaxInboxSize = l
			}
			if results[id].done {
				done[id] = true
				stats.ParkedAtRound[id] = round
				remaining--
			}
		}
		for _, id := range stepping {
			for _, m := range results[id].outbox {
				if m.From != id {
					return stats, fmt.Errorf("distnet: node %d forged sender %d", id, m.From)
				}
				if !n.g.HasEdge(m.From, m.To) {
					return stats, fmt.Errorf("distnet: node %d sent beyond radio range to %d", m.From, m.To)
				}
				stats.MessagesSent++
				switch {
				case done[m.To] || failed[m.To] || crashedNow(m.To):
					// Parked or dark recipients never enqueue: delivering
					// would only grow an inbox nobody reads.
					stats.UndeliveredDown++
					if n.tracer != nil {
						n.tracer.Emit(obs.EvMessageDropped(round, m.From, m.To, "down"))
					}
				case plan != nil && plan.Cut(m.From, m.To, round):
					stats.PartitionDropped++
					if n.tracer != nil {
						n.tracer.Emit(obs.EvMessageDropped(round, m.From, m.To, "partition"))
					}
				case plan != nil && plan.Drop(round):
					stats.MessagesLost++
					if n.tracer != nil {
						n.tracer.Emit(obs.EvMessageDropped(round, m.From, m.To, "loss"))
					}
				default:
					next[m.To] = append(next[m.To], m)
					if plan != nil && plan.Duplicated(round) {
						stats.DuplicatedMessages++
						next[m.To] = append(next[m.To], m)
					}
				}
			}
		}
		// Delivery order is by sender: fresh messages already arrive in id
		// order, and the stable sort only moves a straggler's carried-over
		// messages among them. Then scripted reordering if a reorder fault
		// is active.
		for id, box := range next {
			if len(box) < 2 {
				continue
			}
			if len(stragglers) > 0 {
				slices.SortStableFunc(box, func(a, b Message) int { return a.From - b.From })
			}
			if plan != nil && plan.Reordered(round) {
				perm := plan.Perm(len(box))
				shuffled = append(shuffled[:0], box...)
				for i, j := range perm {
					box[i] = shuffled[j]
				}
			}
			next[id] = box
		}
		inboxes, next = next, inboxes
	}
	return stats, nil
}

// stepResult is one node's Step output for the current round.
type stepResult struct {
	outbox []Message
	done   bool
}

// stepAll runs the Steps of one round on a worker pool of at most
// GOMAXPROCS goroutines (the caller's included). Each result goes to its
// node's own slot, so completion order never matters.
func stepAll(nodes []Node, ids []int, inboxes [][]Message, results []stepResult, round int) {
	step := func(id int) {
		out, d := nodes[id].Step(round, inboxes[id])
		results[id] = stepResult{outbox: out, done: d}
	}
	workers := min(runtime.GOMAXPROCS(0), len(ids))
	if workers < 2 {
		for _, id := range ids {
			step(id)
		}
		return
	}
	var cursor atomic.Int64
	work := func() {
		for k := int(cursor.Add(1)) - 1; k < len(ids); k = int(cursor.Add(1)) - 1 {
			step(ids[k])
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// Broadcast appends to out one message per neighbor of from, all carrying
// payload, and returns the extended slice.
func Broadcast(out []Message, g *graph.Graph, from int, payload any) []Message {
	nbrs := g.Neighbors(from)
	out = slices.Grow(out, len(nbrs))
	for _, to := range nbrs {
		out = append(out, Message{From: from, To: int(to), Payload: payload})
	}
	return out
}
