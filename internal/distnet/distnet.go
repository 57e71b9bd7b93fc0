// Package distnet is the message-passing substrate for Algorithm 3: a
// synchronous (BSP-style) network of reader nodes. Each round steps the
// nodes that have mail or are due (see Node), in id order on the caller's
// goroutine, and a node may send messages only to its neighbors in the
// interference graph; messages sent in round t are delivered at round t+1.
//
// The synchronous model matches the paper's setting (slotted time is
// already assumed for tag reading) and makes executions deterministic:
// delivery walks the round's outboxes in sender id order, so inboxes arrive
// sorted by sender and a seeded run always produces the same schedule.
//
// A message carries an opaque uint64 handle, never a pointer: node programs
// keep their payloads in their own tables and send indexes into them, so
// inbox buffers hold no pointers for the garbage collector to scan. A
// broadcast (To == All) is one outbox entry that delivery expands over the
// sender's neighbors in adjacency order.
//
// Failure injection is scripted through package fault (WithFaults): reader
// crashes stop a node from stepping and sending, partitions cut edge
// traffic, stragglers skip rounds, and probabilistic loss, duplication and
// reordering perturb delivery — all reproducibly from a scenario seed.
package distnet

import (
	"fmt"
	"slices"

	"rfidsched/internal/fault"
	"rfidsched/internal/graph"
	"rfidsched/internal/obs"
)

// All as a Message's To broadcasts it: delivery makes one copy per radio
// neighbor of the sender, in adjacency order, and every per-copy decision
// (fault draws, drop events, Stats counters) names the concrete recipient.
const All = -1

// Message is a payload in flight between adjacent nodes. Payload is an
// opaque handle the network never interprets.
type Message struct {
	From, To int
	Payload  uint64
}

// Node is the per-reader protocol logic. Step receives the round number
// and this round's inbox and returns messages to send (delivered next
// round), the round it next needs a Step without mail, and whether it is
// done. Returning done=true parks the node: Step is no longer called, and
// when every node is done the network halts.
//
// Wake contract: a live node that is neither crashed nor straggling is
// stepped in round t iff its inbox is non-empty or t >= wake, where wake is
// the value its last Step returned (0 before the first). A Step with an
// empty inbox before wake must therefore be a no-op; returning round+1
// asks for a Step every round.
//
// Buffers are recycled between rounds: the inbox is valid only for the
// duration of the Step call (copy messages out to keep them), and the
// network has finished reading a returned outbox before any node's next
// Step, so a node may reuse its outbox buffer from round to round. Steps
// run one at a time in id order, but a Step must not read what another
// node's Step wrote in the same round: each round is one synchronous step
// of the whole network, and that order is not part of the model.
type Node interface {
	Step(round int, inbox []Message) (outbox []Message, wake int, done bool)
}

// Stats summarizes one network run.
type Stats struct {
	Rounds        int
	MessagesSent  int // copies transmitted: a broadcast counts once per neighbor
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
	// follows delivery order, so event order is deterministic for a fixed
	// seed.
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

// Run drives the nodes until all are done (or permanently crashed) or
// maxRounds elapses. It returns an error if a node forges its sender or
// unicasts to a non-neighbor (a protocol bug: radios cannot reach beyond
// the interference range), or if maxRounds is exhausted with undone nodes.
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
	wake := make([]int, len(nodes))    // next round each node is due
	// Inboxes are double-buffered: once a round's Steps are done with
	// inboxes, delivery refills next, and the two swap.
	inboxes := make([][]Message, len(nodes))
	next := make([][]Message, len(nodes))
	outboxes := make([][]Message, len(nodes)) // this round's, by node id
	var stepping, stragglers []int
	var shuffled []Message
	var unicast [1]int32
	remaining := len(nodes)

	for round := 0; remaining > 0; round++ {
		if round >= maxRounds {
			return stats, fmt.Errorf("distnet: %d nodes still running after %d rounds", remaining, maxRounds)
		}
		stats.Rounds = round + 1

		// Fault bookkeeping for this round.
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
		for id, node := range nodes {
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
			inbox := inboxes[id]
			if len(inbox) == 0 && round < wake[id] {
				continue // quiescent: the Step would be a no-op
			}
			stats.MaxInboxSize = max(stats.MaxInboxSize, len(inbox))
			out, w, d := node.Step(round, inbox)
			outboxes[id], wake[id] = out, w
			// Park before delivery: a message sent to a node that parks
			// this same round must not enqueue, regardless of id order.
			if d {
				done[id] = true
				stats.ParkedAtRound[id] = round
				remaining--
			}
			stepping = append(stepping, id)
		}

		for id := range next {
			next[id] = next[id][:0]
		}
		for _, id := range stragglers {
			next[id] = append(next[id], inboxes[id]...) // unread messages carry over
		}
		for _, id := range stepping {
			for _, m := range outboxes[id] {
				if m.From != id {
					return stats, fmt.Errorf("distnet: node %d forged sender %d", id, m.From)
				}
				to := n.g.Neighbors(id)
				if m.To != All {
					if !n.g.HasEdge(id, m.To) {
						return stats, fmt.Errorf("distnet: node %d sent beyond radio range to %d", id, m.To)
					}
					unicast[0] = int32(m.To)
					to = unicast[:]
				}
				for _, v := range to {
					v := int(v)
					stats.MessagesSent++
					switch {
					case done[v] || failed[v] || crashedNow(v):
						// Parked or dark recipients never enqueue: delivering
						// would only grow an inbox nobody reads.
						stats.UndeliveredDown++
						if n.tracer != nil {
							n.tracer.Emit(obs.EvMessageDropped(round, id, v, "down"))
						}
					case plan != nil && plan.Cut(id, v, round):
						stats.PartitionDropped++
						if n.tracer != nil {
							n.tracer.Emit(obs.EvMessageDropped(round, id, v, "partition"))
						}
					case plan != nil && plan.Drop(round):
						stats.MessagesLost++
						if n.tracer != nil {
							n.tracer.Emit(obs.EvMessageDropped(round, id, v, "loss"))
						}
					default:
						c := Message{From: id, To: v, Payload: m.Payload}
						next[v] = append(next[v], c)
						if plan != nil && plan.Duplicated(round) {
							stats.DuplicatedMessages++
							next[v] = append(next[v], c)
						}
					}
				}
			}
		}
		// Delivery order is by sender: fresh messages already arrive in id
		// order, and the stable sort only moves a straggler's carried-over
		// messages among them. Then scripted reordering if a reorder fault
		// is active.
		for _, box := range next {
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
		}
		inboxes, next = next, inboxes
	}
	return stats, nil
}
