package distnet

import (
	"reflect"
	"sync/atomic"
	"testing"

	"rfidsched/internal/fault"
	"rfidsched/internal/graph"
	"rfidsched/internal/obs"
)

func mustGraph(t *testing.T, n int, edges [][2]int) *graph.Graph {
	t.Helper()
	g, err := graph.New(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// flooder floods a token through the graph and records the round it first
// heard it; node 0 originates.
type flooder struct {
	id    int
	g     *graph.Graph
	heard int32 // round+1 when first heard, 0 = never
}

func (f *flooder) Step(round int, inbox []Message) ([]Message, int, bool) {
	if f.id == 0 && round == 0 {
		atomic.StoreInt32(&f.heard, 1)
		return []Message{{From: 0, To: All}}, round + 1, false
	}
	if atomic.LoadInt32(&f.heard) == 0 && len(inbox) > 0 {
		atomic.StoreInt32(&f.heard, int32(round)+1)
		return []Message{{From: f.id, To: All}}, round + 1, false
	}
	// Park once heard (or after enough silence).
	if atomic.LoadInt32(&f.heard) != 0 || round > 10 {
		return nil, round + 1, true
	}
	return nil, round + 1, false
}

func TestFloodReachesByHopDistance(t *testing.T) {
	g := mustGraph(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	nodes := make([]Node, 5)
	fs := make([]*flooder, 5)
	for i := range nodes {
		fs[i] = &flooder{id: i, g: g}
		nodes[i] = fs[i]
	}
	stats, err := NewNetwork(g).Run(nodes, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range fs {
		wantRound := i // hop distance from 0
		if got := int(f.heard) - 1; got != wantRound {
			t.Errorf("node %d heard at round %d, want %d", i, got, wantRound)
		}
	}
	if stats.MessagesSent == 0 {
		t.Error("no messages counted")
	}
	for i, r := range stats.ParkedAtRound {
		if r < 0 {
			t.Errorf("node %d never parked", i)
		}
	}
}

type fn func(round int, inbox []Message) ([]Message, bool)

func (f fn) Step(round int, inbox []Message) ([]Message, int, bool) {
	out, done := f(round, inbox)
	return out, round + 1, done
}

func TestRejectsNonNeighborSend(t *testing.T) {
	g := mustGraph(t, 3, [][2]int{{0, 1}})
	nodes := []Node{
		fn(func(round int, _ []Message) ([]Message, bool) {
			return []Message{{From: 0, To: 2}}, true // 2 is not a neighbor
		}),
		fn(func(int, []Message) ([]Message, bool) { return nil, true }),
		fn(func(int, []Message) ([]Message, bool) { return nil, true }),
	}
	if _, err := NewNetwork(g).Run(nodes, 10); err == nil {
		t.Error("out-of-range send accepted")
	}
}

func TestRejectsForgedSender(t *testing.T) {
	g := mustGraph(t, 2, [][2]int{{0, 1}})
	nodes := []Node{
		fn(func(int, []Message) ([]Message, bool) {
			return []Message{{From: 1, To: 0}}, true // node 0 claims to be node 1
		}),
		fn(func(int, []Message) ([]Message, bool) { return nil, true }),
	}
	if _, err := NewNetwork(g).Run(nodes, 10); err == nil {
		t.Error("forged sender accepted")
	}
}

func TestMaxRoundsExceeded(t *testing.T) {
	g := mustGraph(t, 1, nil)
	nodes := []Node{fn(func(int, []Message) ([]Message, bool) { return nil, false })}
	if _, err := NewNetwork(g).Run(nodes, 5); err == nil {
		t.Error("runaway node not reported")
	}
}

func TestNodeCountMismatch(t *testing.T) {
	g := mustGraph(t, 2, nil)
	if _, err := NewNetwork(g).Run([]Node{}, 5); err == nil {
		t.Error("node count mismatch accepted")
	}
}

func TestInboxSortedBySender(t *testing.T) {
	g := mustGraph(t, 4, [][2]int{{3, 0}, {3, 1}, {3, 2}})
	var got []int
	nodes := []Node{
		fn(func(round int, _ []Message) ([]Message, bool) {
			return []Message{{From: 0, To: 3}}, true
		}),
		fn(func(round int, _ []Message) ([]Message, bool) {
			return []Message{{From: 1, To: 3}}, true
		}),
		fn(func(round int, _ []Message) ([]Message, bool) {
			return []Message{{From: 2, To: 3}}, true
		}),
		fn(func(round int, inbox []Message) ([]Message, bool) {
			if round == 1 {
				for _, m := range inbox {
					got = append(got, m.From)
				}
				return nil, true
			}
			return nil, false
		}),
	}
	if _, err := NewNetwork(g).Run(nodes, 10); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("inbox order = %v", got)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	build := func() ([]Node, *graph.Graph) {
		g := mustGraph(t, 6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
		nodes := make([]Node, 6)
		for i := range nodes {
			i := i
			nodes[i] = fn(func(round int, inbox []Message) ([]Message, bool) {
				if round >= 3 {
					return nil, true
				}
				return []Message{{From: i, To: All, Payload: uint64(round)}}, false
			})
		}
		return nodes, g
	}
	n1, g1 := build()
	s1, err := NewNetwork(g1).Run(n1, 100)
	if err != nil {
		t.Fatal(err)
	}
	n2, g2 := build()
	s2, err := NewNetwork(g2).Run(n2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if s1.MessagesSent != s2.MessagesSent || s1.Rounds != s2.Rounds {
		t.Errorf("non-deterministic stats: %+v vs %+v", s1, s2)
	}
}

func TestTimeoutStatsStillReturned(t *testing.T) {
	g := mustGraph(t, 1, nil)
	nodes := []Node{fn(func(int, []Message) ([]Message, bool) { return nil, false })}
	stats, err := NewNetwork(g).Run(nodes, 2)
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if stats == nil || stats.Rounds != 2 {
		t.Errorf("stats on timeout: %+v", stats)
	}
}

// recorder logs the rounds it is stepped in; it always asks to be woken at
// wakeAt and parks there.
type recorder struct {
	wakeAt  int
	stepped []int
}

func (r *recorder) Step(round int, _ []Message) ([]Message, int, bool) {
	r.stepped = append(r.stepped, round)
	return nil, r.wakeAt, round >= r.wakeAt
}

// TestWakeContract checks when a quiescent node is stepped: at round 0, on
// mail before its wake, at its wake, and not at all on an empty inbox in
// between. Mail that arrives while it straggles waits for the straggle to
// end, and every straggled round counts in StragglerSkips, due or not.
func TestWakeContract(t *testing.T) {
	g := mustGraph(t, 2, [][2]int{{0, 1}})
	sender := fn(func(round int, _ []Message) ([]Message, bool) {
		if round == 3 || round == 5 {
			return []Message{{From: 0, To: 1}}, false
		}
		return nil, round >= 6
	})
	rec := &recorder{wakeAt: 10}
	plan := fault.MustCompile(fault.Scenario{Events: []fault.Event{fault.Straggle(1, 5, 3)}}, 2)
	stats, err := NewNetwork(g).WithFaults(plan).Run([]Node{sender, rec}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 4, 8, 10}; !reflect.DeepEqual(rec.stepped, want) {
		t.Errorf("stepped at rounds %v, want %v", rec.stepped, want)
	}
	if stats.StragglerSkips != 3 || stats.Rounds != 11 || stats.ParkedAtRound[1] != 10 {
		t.Errorf("stats %+v, want 3 straggler skips, 11 rounds, park at 10", stats)
	}
}

// TestBroadcastExpandsPerNeighbor sends one To: All entry from a hub and
// checks that delivery makes one copy per neighbor in adjacency order, each
// with its own fault decision and a drop event naming its recipient, and
// that MessagesSent counts the copies.
func TestBroadcastExpandsPerNeighbor(t *testing.T) {
	g := mustGraph(t, 4, [][2]int{{0, 3}, {0, 1}, {0, 2}})
	var got []Message
	nodes := []Node{
		fn(func(round int, _ []Message) ([]Message, bool) {
			return []Message{{From: 0, To: All, Payload: 7}}, true
		}),
		fn(func(round int, inbox []Message) ([]Message, bool) {
			got = append(got, inbox...)
			return nil, round >= 1
		}),
		fn(func(int, []Message) ([]Message, bool) { return nil, true }), // parked: "down"
		fn(func(round int, _ []Message) ([]Message, bool) { return nil, round >= 1 }),
	}
	plan := fault.MustCompile(fault.Scenario{Events: []fault.Event{
		fault.Partition([][2]int{{0, 3}}, 0, 1),
		fault.Duplicate(1, 0, 1),
	}}, 4)
	var c obs.Collector
	stats, err := NewNetwork(g).WithFaults(plan).WithTracer(&c).Run(nodes, 10)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int32{1, 2, 3}; !reflect.DeepEqual(g.Neighbors(0), want) {
		t.Fatalf("adjacency order %v, want %v", g.Neighbors(0), want)
	}
	if stats.MessagesSent != 3 || stats.UndeliveredDown != 1 || stats.PartitionDropped != 1 || stats.DuplicatedMessages != 1 {
		t.Errorf("per-copy accounting off: %+v", stats)
	}
	if want := []Message{{From: 0, To: 1, Payload: 7}, {From: 0, To: 1, Payload: 7}}; !reflect.DeepEqual(got, want) {
		t.Errorf("node 1 received %v, want %v", got, want)
	}
	want := []obs.Event{obs.EvMessageDropped(0, 0, 2, "down"), obs.EvMessageDropped(0, 0, 3, "partition")}
	if !reflect.DeepEqual(c.Events(), want) {
		t.Errorf("drop events %+v, want %+v", c.Events(), want)
	}
}

func TestRejectsForgedBroadcast(t *testing.T) {
	g := mustGraph(t, 2, [][2]int{{0, 1}})
	nodes := []Node{
		fn(func(int, []Message) ([]Message, bool) {
			return []Message{{From: 1, To: All}}, true
		}),
		fn(func(int, []Message) ([]Message, bool) { return nil, true }),
	}
	if _, err := NewNetwork(g).Run(nodes, 10); err == nil {
		t.Error("forged broadcast accepted")
	}
}
