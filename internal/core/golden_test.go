package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"testing"

	"rfidsched/internal/baseline"
	"rfidsched/internal/deploy"
	"rfidsched/internal/distnet"
	"rfidsched/internal/fault"
	"rfidsched/internal/geom"
	"rfidsched/internal/graph"
	"rfidsched/internal/model"
	"rfidsched/internal/randx"
	"rfidsched/internal/survey"
)

// Behaviour lock for the three paper algorithms: the SHA-256 of every slot's
// (active set, tags read, fallback) record of a full covering schedule, plus
// Algorithm 3's summed protocol rounds and messages. Solver refactors must
// leave these bytes unchanged at every worker count; a mismatch means the
// schedule itself moved, not just its cost.

type goldenMCS struct {
	digest   string
	rounds   int // Alg. 3 only: protocol rounds summed over the slots
	messages int // Alg. 3 only: messages sent summed over the slots
}

var goldenSchedules = map[string]goldenMCS{
	"uniform/alg1":       {digest: "ab0f883e4cd6f8bb5466ab45f7c9ae701a6dec0336d230b8fcf18fe2821d489f"},
	"uniform/alg2":       {digest: "8f5d1916da35a438197af0ad2410915668cba5c29c758b5355852366b092e075"},
	"uniform/alg3":       {digest: "aacb8e77826f6e58467aef2fb84df1d89b09e91cef8edb8f8d67dd1454e30ae5", rounds: 819, messages: 96711},
	"heterogeneous/alg1": {digest: "962df17455887f29f4537df0bbfa208b6c566e7c007d32eb11f36cf6942f18d6"},
	"heterogeneous/alg2": {digest: "f62f08dbe98aeaa6187583a2f18d9df31c0cba4e76ecb9e3fb201cdeef17dead"},
	"heterogeneous/alg3": {digest: "61df7ffe40dbed88bdf08b10c5d721892cf1c0376506896979e5e944f76070ea", rounds: 2093, messages: 113335},
	"survey/alg2":        {digest: "f28dcabc523ca349bb28767f6ef5e524d0050b6cd714a2e859353b7207f12a07"},
	"downmask/alg1":      {digest: "332b75fba7a507c7186d13d8ad589f360e019796951175b4b92253b0396cc842"},

	"uniform/ghc":             {digest: "7afa465c6dcf2fc9e19f1c3f6fdf9c45344c6d191ae9c60db2cbd377056cf92c"},
	"uniform/colorwave":       {digest: "9c48a0478f905d528f7e809384de3048751f21d03f12912be75e520851ef4ec2"},
	"uniform/fallback":        {digest: "0af01b2dc6d8348ed401e16c20a9e32b112690075f5016208681025e8f1c6120"},
	"heterogeneous/ghc":       {digest: "335297e44cbd6382fbacebf162ac95b922ae6983742c44bbc8e17ff09f1e7608"},
	"heterogeneous/colorwave": {digest: "edb2fa684ebfd508771f8da7f6b1cf45f7a3a05ef5f5cffd314aa7af0530617a"},
	"heterogeneous/fallback":  {digest: "ea294f52516c0b397a21b106b5092f191bf190cf2786a898929b1df74ec3cc3b"},
}

// goldenUniform is a dense uniform deployment whose interrogation radii
// nearly reach the interference radii, so interfering readers often share
// tags and the local solves' feasibility test decides between sets of equal
// or higher weight: a head or ball that ignored its conflict rows would
// schedule differently here.
func goldenUniform(t *testing.T) *model.System {
	t.Helper()
	sys, err := deploy.Generate(deploy.Config{
		Seed: 2024, NumReaders: 44, NumTags: 600, Side: 55,
		LambdaR: 12, LambdaSmallR: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// goldenDeployments are the two geometries every golden table is keyed by.
var goldenDeployments = []struct {
	name  string
	build func(*testing.T) *model.System
}{
	{"uniform", goldenUniform},
	{"heterogeneous", goldenHeterogeneous},
}

// goldenHeterogeneous spreads interference radii over a 16x range
// (log-uniform) with interrogation radii of 3-9 regardless, so the PTAS uses
// several grid levels and the interference graph mixes long-reach hubs with
// near-isolated readers.
func goldenHeterogeneous(t *testing.T) *model.System {
	t.Helper()
	rng := randx.New(77)
	const side = 80.0
	readers := make([]model.Reader, 40)
	for i := range readers {
		R := 2.5 * math.Pow(16, rng.Float64())
		readers[i] = model.Reader{
			Pos:            geom.Pt(rng.UniformRange(0, side), rng.UniformRange(0, side)),
			InterferenceR:  R,
			InterrogationR: math.Min(R, rng.UniformRange(3, 9)),
		}
	}
	tags := make([]model.Tag, 320)
	for i := range tags {
		tags[i] = model.Tag{Pos: geom.Pt(rng.UniformRange(0, side), rng.UniformRange(0, side))}
	}
	sys, err := model.NewSystem(readers, tags)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// countingDistributed sums Alg. 3's per-slot network statistics over a
// covering schedule (LastStats only holds the most recent slot).
type countingDistributed struct {
	*Distributed
	rounds, messages int
}

func (c *countingDistributed) OneShot(sys *model.System) ([]int, error) {
	X, err := c.Distributed.OneShot(sys)
	if c.LastStats != nil {
		c.rounds += c.LastStats.Rounds
		c.messages += c.LastStats.MessagesSent
	}
	return X, err
}

func scheduleDigest(res *MCSResult) string {
	h := sha256.New()
	for _, s := range res.Slots {
		fmt.Fprintf(h, "%v|%d|%t\n", s.Active, s.TagsRead, s.Fallback)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenRun runs one covering schedule and returns its lock entry.
func goldenRun(t *testing.T, key string, sys *model.System, g *graph.Graph, alg string, workers int) goldenMCS {
	t.Helper()
	var sched model.OneShotScheduler
	var alg3 *countingDistributed
	switch alg {
	case "alg1":
		sched = NewPTAS()
	case "alg2":
		sched = NewGrowth(g, 1.25)
	case "alg3":
		alg3 = &countingDistributed{Distributed: NewDistributed(g, 1.25)}
		sched = alg3
	case "ghc":
		sched = baseline.GHC{}
	case "colorwave":
		sched = baseline.NewColorwave(g, 7)
	}
	res, err := RunMCS(sys, sched, MCSOptions{RecordSlots: true, SolverWorkers: workers})
	if err != nil {
		t.Fatalf("%s workers=%d: %v", key, workers, err)
	}
	got := goldenMCS{digest: scheduleDigest(res)}
	if alg3 != nil {
		got.rounds, got.messages = alg3.rounds, alg3.messages
	}
	return got
}

func TestGoldenSchedules(t *testing.T) {
	for _, dep := range goldenDeployments {
		for _, alg := range []string{"alg1", "alg2", "alg3", "ghc", "colorwave"} {
			key := dep.name + "/" + alg
			want := goldenSchedules[key]
			for _, workers := range []int{1, 2, 4} {
				sys := dep.build(t)
				got := goldenRun(t, key, sys, graph.FromSystem(sys), alg, workers)
				if got != want {
					t.Errorf("%s workers=%d: got {digest: %q, rounds: %d, messages: %d}, want %+v",
						key, workers, got.digest, got.rounds, got.messages, want)
				}
			}
		}
	}
}

// TestGoldenSurveyGrowth locks Alg. 2 on a survey-estimated interference
// graph that misses real edges: Growth judges feasibility from the graph
// alone, so its balls activate readers that interfere in the geometry and
// the local weight must charge the resulting collisions.
func TestGoldenSurveyGrowth(t *testing.T) {
	const key = "survey/alg2"
	for _, workers := range []int{1, 2} {
		sys := goldenUniform(t)
		g, rep, err := survey.EstimateGraph(sys, survey.Params{ShadowSigma: 6, Samples: 2, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		if rep.FalseNegative == 0 {
			t.Fatalf("survey graph misses no real edge: %+v", rep)
		}
		if got, want := goldenRun(t, key, sys, g, "alg2", workers), goldenSchedules[key]; got != want {
			t.Errorf("%s workers=%d: got digest %q, want %q", key, workers, got.digest, want.digest)
		}
	}
}

// TestGoldenDownMask locks Alg. 1 with a fixed set of failed readers: the
// local solves must treat a down reader as covering and interfering with
// nothing, and the run must end once every tag a live reader covers is read.
func TestGoldenDownMask(t *testing.T) {
	const key = "downmask/alg1"
	for _, workers := range []int{1, 2} {
		sys := goldenHeterogeneous(t)
		for v := 0; v < sys.NumReaders(); v += 4 {
			sys.SetReaderDown(v, true)
		}
		g := graph.FromSystem(sys)
		if got, want := goldenRun(t, key, sys, g, "alg1", workers), goldenSchedules[key]; got != want {
			t.Errorf("%s workers=%d: got digest %q, want %q", key, workers, got.digest, want.digest)
		}
	}
}

// nilScheduler never activates anyone, so every schedule it drives is built
// by the stall guard alone.
type nilScheduler struct{}

func (nilScheduler) Name() string                         { return "nil" }
func (nilScheduler) OneShot(*model.System) ([]int, error) { return nil, nil }

// TestGoldenFallback locks the stall guard's greedy feasible set: with
// StallLimit 1 every second slot is empty and the one after it comes from
// greedyFallback, which is the PTAS augmentation pass started from nothing.
func TestGoldenFallback(t *testing.T) {
	for _, dep := range goldenDeployments {
		key := dep.name + "/fallback"
		res, err := RunMCS(dep.build(t), nilScheduler{}, MCSOptions{RecordSlots: true, StallLimit: 1})
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if res.Fallbacks == 0 {
			t.Fatalf("%s: no fallback slot", key)
		}
		if got, want := scheduleDigest(res), goldenSchedules[key].digest; got != want {
			t.Errorf("%s: got digest %q, want %q", key, got, want)
		}
	}
}

// goldenExactMCS locks ExactMCS's optimal slot count on the micro-benchmark's
// parallel-section instance (deploy seed 2011, 12 readers × 20 tags, side 60,
// λR 14, λr 7), where 6 tags are coverable.
var goldenExactMCS = struct{ coverable, slots int }{coverable: 6, slots: 2}

func TestGoldenExactMCS(t *testing.T) {
	sys, err := deploy.Generate(deploy.Config{
		Seed: 2011, NumReaders: 12, NumTags: 20,
		Side: 60, LambdaR: 14, LambdaSmallR: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.CoverableCount(); got != goldenExactMCS.coverable {
		t.Fatalf("exactmcs: %d coverable tags, want %d", got, goldenExactMCS.coverable)
	}
	for _, workers := range []int{1, 2, 4} {
		slots, err := ExactMCS{Workers: workers}.Solve(sys)
		if err != nil {
			t.Fatalf("exactmcs workers=%d: %v", workers, err)
		}
		if slots != goldenExactMCS.slots {
			t.Errorf("exactmcs workers=%d: got %d slots, want %d", workers, slots, goldenExactMCS.slots)
		}
	}
}

// goldenOneShot locks one first-slot solve on the all-unread deployment: the
// SHA-256 of the sorted set and its weight. Unlike a covering schedule, a
// one-shot also pins the exact search's answer (baseline.Exact), and the
// solvers' first and heaviest slot, where the local searches are largest.
type goldenOneShot struct {
	digest string
	weight int
}

var goldenOneShots = map[string]goldenOneShot{
	"uniform/alg1/oneshot":        {digest: "0b60715cc9e2322d1f9d99da1b4db3eba37e14477df1d5d571d683c5dec8ad70", weight: 488},
	"uniform/alg2/oneshot":        {digest: "01f562fe8a3c5435bbce51dffde292fc687ad412749f0546fa5554bfc3110031", weight: 403},
	"uniform/alg3/oneshot":        {digest: "01f562fe8a3c5435bbce51dffde292fc687ad412749f0546fa5554bfc3110031", weight: 403},
	"uniform/exact/oneshot":       {digest: "0b60715cc9e2322d1f9d99da1b4db3eba37e14477df1d5d571d683c5dec8ad70", weight: 488},
	"heterogeneous/alg1/oneshot":  {digest: "74ab66af1016a055ca7b86861e82c0f9409636f2aaba3e86a3f814094b02ed39", weight: 114},
	"heterogeneous/alg2/oneshot":  {digest: "dcc149ccd693dac782d1dbcc84b7b009bacddf83809fdf1b6ffc45fc78a7f372", weight: 114},
	"heterogeneous/alg3/oneshot":  {digest: "33b02b64e9a9810e19ab04b850b95dccea36d7677ee9db793318e5ba899277c6", weight: 114},
	"heterogeneous/exact/oneshot": {digest: "33b02b64e9a9810e19ab04b850b95dccea36d7677ee9db793318e5ba899277c6", weight: 114},
}

func setDigest(set []int) string {
	sum := sha256.Sum256([]byte(fmt.Sprint(set)))
	return hex.EncodeToString(sum[:])
}

func TestGoldenOneShots(t *testing.T) {
	for _, dep := range goldenDeployments {
		for _, alg := range []string{"alg1", "alg2", "alg3", "exact"} {
			key := dep.name + "/" + alg + "/oneshot"
			for _, workers := range []int{1, 2, 4} {
				sys := dep.build(t)
				g := graph.FromSystem(sys)
				var sched model.OneShotScheduler
				switch alg {
				case "alg1":
					sched = &PTAS{K: 3, Lambda: 6, Workers: workers}
				case "alg2":
					sched = &Growth{G: g, Rho: 1.25, Workers: workers}
				case "alg3":
					// Alg. 3 has no solver-worker knob (DESIGN.md §11); its
					// entry repeats to match the others.
					sched = NewDistributed(g, 1.25)
				case "exact":
					sched = &baseline.Exact{Workers: workers}
				}
				X, err := sched.OneShot(sys)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", key, workers, err)
				}
				if ex, ok := sched.(*baseline.Exact); ok && !ex.LastExact {
					t.Fatalf("%s workers=%d: exact search truncated", key, workers)
				}
				got := goldenOneShot{digest: setDigest(X), weight: sys.Weight(X)}
				if want := goldenOneShots[key]; got != want {
					t.Errorf("%s workers=%d: got {digest: %q, weight: %d}, want %+v", key, workers, got.digest, got.weight, want)
				}
			}
		}
	}
}

// goldenFault locks one Alg. 3 first-slot solve under a fault scenario: the
// decided set's digest and weight plus every distnet.Stats counter, so a
// change to the radio's delivery order, fault draws or stepping shows up
// even where it leaves the set alone.
type goldenFault struct {
	digest string
	weight int
	stats  distnet.Stats
}

// goldenFaultSystem is the mcs-paper geometry (deploy seed 2011) at 30
// readers and 600 tags: c = 16, so an epoch is 86 rounds with the
// coordinator election at round 34 of each.
func goldenFaultSystem(t *testing.T) *model.System {
	t.Helper()
	cfg := deploy.Paper(2011, 12, 5)
	cfg.NumReaders, cfg.NumTags = 30, 600
	sys, err := deploy.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// goldenFaultCases configures each locked scenario on a fresh scheduler.
// All but the re-election case run on the dense uniform deployment, where
// the floods carry thousands of messages for the faults to act on.
var goldenFaultCases = []struct {
	name      string
	build     func(*testing.T) *model.System
	configure func(d *Distributed)
}{
	{"loss", goldenHeterogeneous, func(d *Distributed) { d.LossRate, d.LossSeed = 0.15, 9 }},
	// Reader 0 is a head of epoch 0 and misses its decision round (85)
	// and the next epoch's start: it is elected again at round 120 and
	// drops out of the decided set (ROADMAP item 7).
	{"straggle-reelect", goldenFaultSystem, func(d *Distributed) {
		d.Faults = &fault.Scenario{Events: []fault.Event{fault.Straggle(0, 85, 2)}}
	}},
	// Epochs are 91 rounds here (c = 17): every straggle spans an epoch
	// boundary.
	{"straggle-epochs", goldenHeterogeneous, func(d *Distributed) {
		d.Faults = &fault.Scenario{Events: []fault.Event{
			fault.Straggle(3, 60, 120),
			fault.Straggle(12, 85, 10),
			fault.Straggle(17, 150, 100),
			fault.Straggle(25, 80, 200),
		}}
	}},
	{"crash-dup-reorder", goldenHeterogeneous, func(d *Distributed) {
		d.Faults = &fault.Scenario{Seed: 5, Events: []fault.Event{
			fault.CrashRecover(7, 20, 50),
			fault.CrashRecover(22, 100, 130),
			fault.Duplicate(0.1, 0, fault.Forever),
			fault.Reorder(10, 200),
		}}
	}},
	{"partition-loss", goldenHeterogeneous, func(d *Distributed) {
		var cut [][2]int
		for _, v := range []int{4, 19} {
			for _, w := range d.G.Neighbors(v) {
				cut = append(cut, [2]int{v, int(w)})
			}
		}
		d.Faults = &fault.Scenario{Seed: 13, Events: []fault.Event{
			fault.Partition(cut, 10, 150),
			fault.Loss(0.05, 0, fault.Forever),
		}}
	}},
}

var goldenFaults = map[string]goldenFault{
	"loss": {
		digest: "33b02b64e9a9810e19ab04b850b95dccea36d7677ee9db793318e5ba899277c6", weight: 114,
		stats: distnet.Stats{
			Rounds: 546, MessagesSent: 21006, MessagesLost: 2603, MaxInboxSize: 423, UndeliveredDown: 3365,
			ParkedAtRound: []int{
				90, 181, 272, 181, 90, 363, 272, 363, 181, 363, 363, 90, 272, 272, 454,
				363, 454, 90, 181, 454, 181, 272, 363, 272, 454, 90, 272, 181, 90, 90,
				454, 454, 272, 545, 363, 90, 181, 90, 363, 90,
			},
		},
	},
	"straggle-reelect": {
		digest: "7b88913fe4e96ced1b40f7a4182a2a6c212b8f9f592a5084a482694ab38d2098", weight: 72,
		stats: distnet.Stats{
			Rounds: 258, MessagesSent: 349, MaxInboxSize: 14, StragglerSkips: 2, UndeliveredDown: 13,
			ParkedAtRound: []int{
				171, 85, 171, 85, 85, 85, 171, 85, 85, 171, 85, 85, 85, 85, 85,
				85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 257, 85, 171, 85,
			},
		},
	},
	"straggle-epochs": {
		digest: "33b02b64e9a9810e19ab04b850b95dccea36d7677ee9db793318e5ba899277c6", weight: 114,
		stats: distnet.Stats{
			Rounds: 455, MessagesSent: 20299, MaxInboxSize: 539, StragglerSkips: 330, UndeliveredDown: 3234,
			ParkedAtRound: []int{
				90, 272, 181, 272, 90, 272, 181, 272, 272, 272, 272, 90, 272, 363, 363,
				363, 454, 90, 181, 363, 272, 363, 363, 363, 363, 363, 181, 181, 90, 90,
				454, 363, 181, 363, 363, 90, 181, 90, 454, 90,
			},
		},
	},
	"crash-dup-reorder": {
		digest: "33b02b64e9a9810e19ab04b850b95dccea36d7677ee9db793318e5ba899277c6", weight: 114,
		stats: distnet.Stats{
			Rounds: 455, MessagesSent: 21424, MaxInboxSize: 593, DuplicatedMessages: 1728, UndeliveredDown: 3598,
			ParkedAtRound: []int{
				90, 181, 272, 181, 90, 363, 272, 363, 181, 363, 363, 90, 272, 272, 454,
				363, 454, 90, 181, 454, 181, 272, 363, 272, 454, 90, 272, 181, 90, 90,
				454, 454, 272, 454, 363, 90, 181, 90, 363, 90,
			},
		},
	},
	"partition-loss": {
		digest: "e69234a6dd0252609e011f1e364bb55257bd6d09f2e0fcbed3f65dbbd3b744ae", weight: 98,
		stats: distnet.Stats{
			Rounds: 455, MessagesSent: 39367, MessagesLost: 1681, MaxInboxSize: 506, PartitionedRounds: 140, PartitionDropped: 248, UndeliveredDown: 4591,
			ParkedAtRound: []int{
				363, 181, 272, 181, 90, 363, 272, 363, 181, 363, 363, 181, 272, 272, 454,
				454, 454, 454, 454, 181, 181, 454, 454, 454, 454, 454, 272, 454, 90, 181,
				454, 454, 272, 454, 454, 454, 454, 454, 454, 454,
			},
		},
	},
}

// TestGoldenAlg3Faults locks Alg. 3 under loss, stragglers, crash-recover,
// duplication, reordering and partitions: the radio must make the same
// per-message decisions, in the same order, for the set and every Stats
// counter to match.
func TestGoldenAlg3Faults(t *testing.T) {
	for _, tc := range goldenFaultCases {
		sys := tc.build(t)
		d := NewDistributed(graph.FromSystem(sys), 1.25)
		tc.configure(d)
		X, err := d.OneShot(sys)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := goldenFault{digest: setDigest(X), weight: sys.Weight(X), stats: *d.LastStats}
		if want := goldenFaults[tc.name]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %#v\nwant %#v", tc.name, got, want)
		}
	}
}
