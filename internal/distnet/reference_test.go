package distnet

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"rfidsched/internal/fault"
	"rfidsched/internal/graph"
	"rfidsched/internal/obs"
	"rfidsched/internal/randx"
)

// runReference is the network without quiescence or the broadcast entry:
// it steps every live node every round, ignoring wake, and expands each
// To == All message into one copy per neighbor before any check, as a
// per-copy Broadcast helper would. Run must match it on every node program
// that honours the wake contract.
func runReference(g *graph.Graph, plan *fault.Plan, tr obs.Tracer, nodes []Node, maxRounds int) (*Stats, error) {
	stats := &Stats{ParkedAtRound: make([]int, len(nodes))}
	for i := range stats.ParkedAtRound {
		stats.ParkedAtRound[i] = -1
	}
	done := make([]bool, len(nodes))
	failed := make([]bool, len(nodes))
	inboxes := make([][]Message, len(nodes))
	outboxes := make([][]Message, len(nodes))
	remaining := len(nodes)
	for round := 0; remaining > 0; round++ {
		if round >= maxRounds {
			return stats, fmt.Errorf("distnet: %d nodes still running after %d rounds", remaining, maxRounds)
		}
		stats.Rounds = round + 1
		if plan != nil {
			for id := range nodes {
				if !done[id] && !failed[id] && plan.PermanentlyDown(id, round) {
					failed[id] = true
					inboxes[id] = nil
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

		var stepping, stragglers []int
		for id := range nodes {
			switch {
			case done[id] || failed[id]:
			case crashedNow(id):
				inboxes[id] = nil
			case plan != nil && plan.Straggling(id, round):
				stats.StragglerSkips++
				stragglers = append(stragglers, id)
			default:
				stepping = append(stepping, id)
			}
		}
		for _, id := range stepping {
			out, _, d := nodes[id].Step(round, inboxes[id])
			var copies []Message
			for _, m := range out {
				if m.To != All {
					copies = append(copies, m)
					continue
				}
				for _, to := range g.Neighbors(id) {
					copies = append(copies, Message{From: m.From, To: int(to), Payload: m.Payload})
				}
			}
			outboxes[id] = copies
			stats.MaxInboxSize = max(stats.MaxInboxSize, len(inboxes[id]))
			if d {
				done[id] = true
				stats.ParkedAtRound[id] = round
				remaining--
			}
		}

		next := make([][]Message, len(nodes))
		for _, id := range stragglers {
			next[id] = append(next[id], inboxes[id]...)
		}
		for _, id := range stepping {
			for _, m := range outboxes[id] {
				if m.From != id {
					return stats, fmt.Errorf("distnet: node %d forged sender %d", id, m.From)
				}
				if !g.HasEdge(m.From, m.To) {
					return stats, fmt.Errorf("distnet: node %d sent beyond radio range to %d", m.From, m.To)
				}
				stats.MessagesSent++
				cause := ""
				switch {
				case done[m.To] || failed[m.To] || crashedNow(m.To):
					stats.UndeliveredDown++
					cause = "down"
				case plan != nil && plan.Cut(m.From, m.To, round):
					stats.PartitionDropped++
					cause = "partition"
				case plan != nil && plan.Drop(round):
					stats.MessagesLost++
					cause = "loss"
				default:
					next[m.To] = append(next[m.To], m)
					if plan != nil && plan.Duplicated(round) {
						stats.DuplicatedMessages++
						next[m.To] = append(next[m.To], m)
					}
				}
				if cause != "" && tr != nil {
					tr.Emit(obs.EvMessageDropped(round, m.From, m.To, cause))
				}
			}
		}
		for _, box := range next {
			if len(box) < 2 {
				continue
			}
			slices.SortStableFunc(box, func(a, b Message) int { return a.From - b.From })
			if plan != nil && plan.Reordered(round) {
				perm := plan.Perm(len(box))
				shuffled := slices.Clone(box)
				for i, j := range perm {
					box[i] = shuffled[j]
				}
			}
		}
		inboxes = next
	}
	return stats, nil
}

// waker is a node program that honours the wake contract by construction:
// a Step with an empty inbox before its wake returns at once. Otherwise it
// folds its inbox (round, sender, recipient, payload, position) into a
// digest, and the digest picks what it sends (a broadcast, a unicast, both
// or nothing), when it next wakes, and it parks at last.
type waker struct {
	id, last int
	g        *graph.Graph
	digest   uint64
	wake     int
	out      []Message
}

func (w *waker) Step(round int, inbox []Message) ([]Message, int, bool) {
	if len(inbox) == 0 && round < w.wake {
		return nil, w.wake, false
	}
	for i, m := range inbox {
		w.digest = (w.digest ^ uint64(round)<<40 ^ uint64(m.From)<<20 ^ uint64(m.To)<<50 ^ m.Payload ^ uint64(i)) * 1099511628211
	}
	if round >= w.last {
		return nil, 0, true
	}
	out := w.out[:0]
	nbrs := w.g.Neighbors(w.id)
	kind := w.digest >> 3 % 5
	if kind <= 1 || kind == 3 {
		out = append(out, Message{From: w.id, To: All, Payload: w.digest})
	}
	if (kind == 2 || kind == 3) && len(nbrs) > 0 {
		to := int(nbrs[w.digest>>9%uint64(len(nbrs))])
		out = append(out, Message{From: w.id, To: to, Payload: w.digest + 1})
	}
	w.wake = min(round+1+int(w.digest>>17%6), w.last)
	w.out = out
	return out, w.wake, false
}

// fuzzNetwork derives a graph, a fault scenario and per-node park rounds
// from the fuzz inputs: size picks the node count and edge density, and
// each bit of faults enables one fault kind.
func fuzzNetwork(seed uint64, size, faults uint8) (*graph.Graph, fault.Scenario, []int) {
	rng := randx.New(seed)
	n := 2 + int(size%14)
	density := 0.15 + 0.05*float64(size>>4)
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < density {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	g, err := graph.New(n, edges)
	if err != nil {
		panic(err)
	}
	at := func() int { return rng.Intn(30) }
	sc := fault.Scenario{Seed: seed}
	for bit := 0; bit < 8; bit++ {
		if faults&(1<<bit) == 0 {
			continue
		}
		var ev fault.Event
		switch t := at(); bit {
		case 0, 7:
			ev = fault.Straggle(rng.Intn(n), t, 1+rng.Intn(12))
		case 1:
			ev = fault.CrashRecover(rng.Intn(n), t, t+1+rng.Intn(8))
		case 2:
			ev = fault.Crash(rng.Intn(n), t)
		case 3:
			if len(edges) == 0 {
				continue
			}
			ev = fault.Partition([][2]int{edges[rng.Intn(len(edges))]}, t, t+1+rng.Intn(15))
		case 4:
			ev = fault.Loss(rng.Float64()*0.4, t, t+1+rng.Intn(40))
		case 5:
			ev = fault.Duplicate(rng.Float64()*0.4, t, t+1+rng.Intn(40))
		case 6:
			ev = fault.Reorder(t, t+1+rng.Intn(40))
		}
		sc.Events = append(sc.Events, ev)
	}
	last := make([]int, n)
	for i := range last {
		last[i] = 5 + rng.Intn(40)
	}
	return g, sc, last
}

// FuzzRunMatchesReference runs random node programs over random graphs and
// fault scenarios on Run and on runReference and requires the same Stats,
// error, drop trace and per-node digests.
func FuzzRunMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(7), uint8(0))
	f.Add(uint64(2), uint8(0xbd), uint8(0x81))
	f.Add(uint64(3), uint8(0x5f), uint8(0xff))
	f.Add(uint64(91), uint8(0xec), uint8(0x7e))
	f.Fuzz(func(t *testing.T, seed uint64, size, faults uint8) {
		g, sc, last := fuzzNetwork(seed, size, faults)
		const maxRounds = 50 // a straggle can delay a park past it: timeouts are compared too
		run := func(reference bool) (*Stats, error, []obs.Event, []uint64) {
			nodes := make([]Node, g.N())
			ws := make([]*waker, g.N())
			for i := range nodes {
				ws[i] = &waker{id: i, last: last[i], g: g, digest: uint64(i) + seed}
				nodes[i] = ws[i]
			}
			plan := fault.MustCompile(sc, g.N())
			var c obs.Collector
			var stats *Stats
			var err error
			if reference {
				stats, err = runReference(g, plan, &c, nodes, maxRounds)
			} else {
				stats, err = NewNetwork(g).WithFaults(plan).WithTracer(&c).Run(nodes, maxRounds)
			}
			digests := make([]uint64, len(ws))
			for i, w := range ws {
				digests[i] = w.digest
			}
			return stats, err, c.Events(), digests
		}
		s, err, ev, d := run(false)
		rs, rerr, rev, rd := run(true)
		if fmt.Sprint(err) != fmt.Sprint(rerr) {
			t.Fatalf("error %v, reference %v", err, rerr)
		}
		if !reflect.DeepEqual(s, rs) {
			t.Errorf("stats differ:\n run       %+v\n reference %+v", s, rs)
		}
		if !reflect.DeepEqual(ev, rev) {
			t.Errorf("drop traces differ: %d events vs %d", len(ev), len(rev))
		}
		if !reflect.DeepEqual(d, rd) {
			t.Errorf("node digests differ:\n run       %v\n reference %v", d, rd)
		}
	})
}
