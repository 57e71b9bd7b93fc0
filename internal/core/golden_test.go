package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"rfidsched/internal/baseline"
	"rfidsched/internal/deploy"
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
	deployments := []struct {
		name  string
		build func(*testing.T) *model.System
	}{
		{"uniform", goldenUniform},
		{"heterogeneous", goldenHeterogeneous},
	}
	for _, dep := range deployments {
		for _, alg := range []string{"alg1", "alg2", "alg3"} {
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
	deployments := []struct {
		name  string
		build func(*testing.T) *model.System
	}{
		{"uniform", goldenUniform},
		{"heterogeneous", goldenHeterogeneous},
	}
	for _, dep := range deployments {
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
