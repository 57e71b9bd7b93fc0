// Package fault defines deterministic, scripted fault scenarios for the
// execution layers of rfidsched. Real dense-reader deployments do not fail
// only by independent per-message loss: readers crash (and sometimes come
// back), radio links partition, slow controllers skip protocol rounds, and
// duplicated or reordered frames arrive out of sequence. A Scenario is a
// seeded, reproducible script of such events over an abstract integer
// timeline; each consumer interprets ticks at its own granularity:
//
//   - package distnet interprets ticks as protocol rounds (Algorithm 3's
//     synchronous network), where every fault kind applies;
//   - the covering-schedule driver (core.RunMCS) and the slot simulator
//     (slotsim.Run) interpret ticks as schedule slots, where crash and
//     straggle events decide which readers actually activate.
//
// Compiling a Scenario yields a Plan: an immutable query structure plus one
// seeded RNG for the probabilistic kinds (loss, duplication, reorder), so a
// fixed Scenario always replays the same faults — the contract the
// determinism regression tests in internal/core rely on. A Plan's RNG
// advances as it is queried, so compile a fresh Plan per run; Compile is
// cheap.
package fault

import (
	"fmt"
	"math"
	"slices"

	"rfidsched/internal/randx"
)

// Forever marks an event with no deactivation tick: the fault persists to
// the end of the run. It is deliberately far below MaxInt so interval
// arithmetic (at+k) cannot overflow.
const Forever = 1 << 30

// Kind enumerates the fault kinds of the scenario DSL.
type Kind uint8

const (
	// KindCrash is a fail-stop reader crash: the node stops stepping and
	// sending at At; with Until < Forever it reboots at Until (its radio
	// buffers are lost while down).
	KindCrash Kind = iota
	// KindStraggle pauses a node: it skips Steps during [At, Until) but
	// stays alive and keeps accumulating its inbox.
	KindStraggle
	// KindPartition cuts an edge set of the radio topology during
	// [At, Until): messages across cut edges are dropped.
	KindPartition
	// KindLoss drops each message independently with probability Rate
	// during [At, Until).
	KindLoss
	// KindDuplicate delivers each message twice with probability Rate
	// during [At, Until).
	KindDuplicate
	// KindReorder shuffles every inbox delivered during [At, Until)
	// (deterministically, from the scenario seed) instead of the default
	// sorted-by-sender order.
	KindReorder
)

// String implements fmt.Stringer for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindStraggle:
		return "straggle"
	case KindPartition:
		return "partition"
	case KindLoss:
		return "loss"
	case KindDuplicate:
		return "duplicate"
	case KindReorder:
		return "reorder"
	default:
		return fmt.Sprintf("fault.Kind(%d)", uint8(k))
	}
}

// Event is one scripted fault. Build events with the constructors below;
// the zero value is not a valid event.
type Event struct {
	Kind  Kind
	Node  int      // Crash / Straggle target
	Edges [][2]int // Partition cut (undirected pairs)
	At    int      // first active tick (inclusive)
	Until int      // first inactive tick (exclusive); Forever = permanent
	Rate  float64  // Loss / Duplicate probability in [0, 1]
}

// Crash returns a permanent fail-stop crash of node at tick at.
func Crash(node, at int) Event {
	return Event{Kind: KindCrash, Node: node, At: at, Until: Forever}
}

// CrashRecover returns a crash of node during [at, until): fail-stop at
// at, reboot at until with empty radio buffers.
func CrashRecover(node, at, until int) Event {
	return Event{Kind: KindCrash, Node: node, At: at, Until: until}
}

// Straggle returns a pause of node for k ticks starting at at: the node
// skips Steps but keeps accumulating messages.
func Straggle(node, at, k int) Event {
	return Event{Kind: KindStraggle, Node: node, At: at, Until: at + k}
}

// Partition cuts the given undirected edges during [at, until).
func Partition(edges [][2]int, at, until int) Event {
	return Event{Kind: KindPartition, Edges: edges, At: at, Until: until}
}

// Loss drops each message independently with probability rate during
// [at, until). Rates outside [0, 1] are clamped.
func Loss(rate float64, at, until int) Event {
	return Event{Kind: KindLoss, Rate: clamp01(rate), At: at, Until: until}
}

// Duplicate delivers each message twice with probability rate during
// [at, until). Rates outside [0, 1] are clamped.
func Duplicate(rate float64, at, until int) Event {
	return Event{Kind: KindDuplicate, Rate: clamp01(rate), At: at, Until: until}
}

// Reorder shuffles delivered inboxes during [at, until).
func Reorder(at, until int) Event {
	return Event{Kind: KindReorder, At: at, Until: until}
}

func clamp01(r float64) float64 {
	if r < 0 {
		return 0
	}
	if r > 1 {
		return 1
	}
	return r
}

// Scenario is a seeded script of fault events. The zero value is the
// fault-free scenario. Scenarios are plain data: copy and extend freely.
type Scenario struct {
	// Seed drives every probabilistic event (loss, duplication, reorder).
	// Two compilations of the same scenario replay identical faults.
	Seed uint64

	// Events is the script; order is irrelevant.
	Events []Event
}

// IsZero reports whether the scenario injects no faults at all.
func (s Scenario) IsZero() bool { return len(s.Events) == 0 }

// span is a half-open active interval [at, until).
type span struct{ at, until int }

func (sp span) contains(t int) bool { return t >= sp.at && t < sp.until }

// Plan is a compiled Scenario for a system of n nodes: immutable interval
// structures plus the seeded RNG for probabilistic kinds. Query methods
// are cheap; the probabilistic ones (Drop, Duplicated, Perm) advance the
// RNG and must be called in a deterministic order (the single-threaded
// delivery loop of distnet does so).
type Plan struct {
	n        int
	crash    [][]span
	straggle [][]span
	cuts     map[uint64][]span
	anyCut   []span
	loss     []Event
	dup      []Event
	reorder  []span

	rng *randx.RNG
}

// Compile validates the scenario against an n-node system and builds the
// query plan.
func (s Scenario) Compile(n int) (*Plan, error) {
	if n < 0 {
		return nil, fmt.Errorf("fault: negative node count %d", n)
	}
	p := &Plan{
		n:        n,
		crash:    make([][]span, n),
		straggle: make([][]span, n),
		cuts:     map[uint64][]span{},
	}
	p.rng = randx.New(s.Seed)
	for i, ev := range s.Events {
		if ev.At < 0 {
			return nil, fmt.Errorf("fault: event %d (%s): negative start tick %d", i, ev.Kind, ev.At)
		}
		if ev.At >= Forever {
			return nil, fmt.Errorf("fault: event %d (%s): start tick %d is at or beyond Forever (%d) and can never activate", i, ev.Kind, ev.At, Forever)
		}
		if ev.Until <= ev.At {
			return nil, fmt.Errorf("fault: event %d (%s): zero-length window [%d,%d)", i, ev.Kind, ev.At, ev.Until)
		}
		if ev.Kind == KindLoss || ev.Kind == KindDuplicate {
			if math.IsNaN(ev.Rate) || ev.Rate < 0 || ev.Rate > 1 {
				return nil, fmt.Errorf("fault: event %d (%s): rate %v outside [0,1]", i, ev.Kind, ev.Rate)
			}
		}
		sp := span{ev.At, ev.Until}
		switch ev.Kind {
		case KindCrash, KindStraggle:
			if ev.Node < 0 || ev.Node >= n {
				return nil, fmt.Errorf("fault: event %d (%s): node %d out of range [0,%d)", i, ev.Kind, ev.Node, n)
			}
			if ev.Kind == KindCrash {
				p.crash[ev.Node] = append(p.crash[ev.Node], sp)
			} else {
				p.straggle[ev.Node] = append(p.straggle[ev.Node], sp)
			}
		case KindPartition:
			for _, e := range ev.Edges {
				u, v := e[0], e[1]
				if u == v || u < 0 || v < 0 || u >= n || v >= n {
					return nil, fmt.Errorf("fault: event %d (partition): edge (%d,%d) invalid for %d nodes", i, u, v, n)
				}
				p.cuts[edgeKey(u, v)] = append(p.cuts[edgeKey(u, v)], sp)
			}
			p.anyCut = append(p.anyCut, sp)
		case KindLoss:
			p.loss = append(p.loss, ev)
		case KindDuplicate:
			p.dup = append(p.dup, ev)
		case KindReorder:
			p.reorder = append(p.reorder, sp)
		default:
			return nil, fmt.Errorf("fault: event %d: unknown kind %d", i, ev.Kind)
		}
	}
	for _, spans := range [][][]span{p.crash, p.straggle} {
		for _, l := range spans {
			slices.SortFunc(l, func(a, b span) int { return a.at - b.at })
		}
	}
	return p, nil
}

// Validate checks the scenario against an n-node system without keeping
// the query plan — the cheap pre-flight check CLIs and config loaders run
// before committing to a long run. It accepts exactly the scenarios
// Compile accepts: non-negative below-Forever start ticks, non-empty
// windows, in-range node IDs and edge endpoints, rates inside [0, 1].
func (s Scenario) Validate(n int) error {
	_, err := s.Compile(n)
	return err
}

// MustCompile is Compile for scenarios known valid; it panics on error
// (tests and examples).
func MustCompile(s Scenario, n int) *Plan {
	p, err := s.Compile(n)
	if err != nil {
		panic(err)
	}
	return p
}

func edgeKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(uint32(v))
}

// N returns the node count the plan was compiled for.
func (p *Plan) N() int { return p.n }

// RNGState captures the plan's probabilistic-draw state for checkpointing.
// A resumed consumer compiles the same Scenario (rebuilding the immutable
// interval structures) and calls RestoreRNG so the probabilistic kinds
// (loss, duplication, reorder) continue the exact stream the interrupted
// run was drawing from.
func (p *Plan) RNGState() (state, inc uint64) { return p.rng.State() }

// RestoreRNG restores the draw stream captured by RNGState.
func (p *Plan) RestoreRNG(state, inc uint64) { p.rng.SetState(state, inc) }

// Crashed reports whether node is down (fail-stop, not yet recovered) at
// tick t.
func (p *Plan) Crashed(node, t int) bool { return inSpans(p.crash[node], t) }

// PermanentlyDown reports whether node is crashed at tick t with no
// scripted recovery: some crash interval with Until == Forever has begun.
// Consumers use it to distinguish "wait for the reboot" from "replan
// without this reader".
func (p *Plan) PermanentlyDown(node, t int) bool {
	for _, sp := range p.crash[node] {
		if sp.at <= t && sp.until == Forever {
			return true
		}
	}
	return false
}

// Straggling reports whether node skips its Step at tick t.
func (p *Plan) Straggling(node, t int) bool { return inSpans(p.straggle[node], t) }

// Cut reports whether the undirected edge (u,v) carries no traffic at
// tick t.
func (p *Plan) Cut(u, v, t int) bool { return inSpans(p.cuts[edgeKey(u, v)], t) }

// AnyCut reports whether any partition is active at tick t (telemetry).
func (p *Plan) AnyCut(t int) bool { return inSpans(p.anyCut, t) }

// Reordered reports whether inboxes delivered at tick t are shuffled.
func (p *Plan) Reordered(t int) bool { return inSpans(p.reorder, t) }

// Drop decides the fate of one message at tick t under the active loss
// events; it consumes one RNG draw per active event.
func (p *Plan) Drop(t int) bool {
	drop := false
	for _, ev := range p.loss {
		if t >= ev.At && t < ev.Until && p.rng.Float64() < ev.Rate {
			drop = true
		}
	}
	return drop
}

// Duplicated decides whether one delivered message at tick t is duplicated;
// it consumes one RNG draw per active duplication event.
func (p *Plan) Duplicated(t int) bool {
	dup := false
	for _, ev := range p.dup {
		if t >= ev.At && t < ev.Until && p.rng.Float64() < ev.Rate {
			dup = true
		}
	}
	return dup
}

// Perm returns a seeded pseudo-random permutation of [0, k) for inbox
// reordering; it advances the RNG.
func (p *Plan) Perm(k int) []int { return p.rng.Perm(k) }

func inSpans(spans []span, t int) bool {
	for _, sp := range spans {
		if sp.contains(t) {
			return true
		}
	}
	return false
}

// SampleNodes deterministically picks k distinct nodes of [0, n) from
// seed — the helper chaos sweeps use to crash a fraction of the fleet.
// k is clamped to [0, n]; the result is sorted.
func SampleNodes(n, k int, seed uint64) []int {
	if k <= 0 || n <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	perm := randx.New(seed).Perm(n)
	out := append([]int(nil), perm[:k]...)
	slices.Sort(out)
	return out
}

// CrashNodes returns one permanent fail-stop event per node at tick at.
func CrashNodes(nodes []int, at int) []Event {
	out := make([]Event, 0, len(nodes))
	for _, v := range nodes {
		out = append(out, Crash(v, at))
	}
	return out
}
