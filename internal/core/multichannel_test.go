package core

import (
	"testing"

	"rfidsched/internal/geom"
	"rfidsched/internal/model"
)

func TestMultiChannelValidation(t *testing.T) {
	sys := figure2System(t)
	if _, err := (MultiChannel{Channels: 0}).OneShot(sys); err == nil {
		t.Error("0 channels accepted")
	}
	if (MultiChannel{Channels: 3}).Name() == "" {
		t.Error("empty name")
	}
}

func TestMultiChannelOneChannelMatchesSingle(t *testing.T) {
	// With one channel the plan must be a feasible set and its channeled
	// weight must equal the plain weight.
	sys := paperSystem(t, 41, 12, 5)
	plan, err := (MultiChannel{Channels: 1}).OneShot(sys)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.IsFeasible(plan.Readers) {
		t.Fatal("single-channel plan infeasible")
	}
	if got, want := plan.Weight(sys), sys.Weight(plan.Readers); got != want {
		t.Errorf("channeled weight %d != plain weight %d", got, want)
	}
}

func TestMultiChannelPlanIsChannelFeasible(t *testing.T) {
	sys := paperSystem(t, 43, 12, 5)
	for _, c := range []int{1, 2, 4} {
		plan, err := (MultiChannel{Channels: c}).OneShot(sys)
		if err != nil {
			t.Fatal(err)
		}
		if !sys.IsChannelFeasible(plan.Readers, plan.Channels) {
			t.Fatalf("%d channels: plan violates per-channel independence", c)
		}
		for _, ch := range plan.Channels {
			if ch < 0 || ch >= c {
				t.Fatalf("channel %d out of range [0,%d)", ch, c)
			}
		}
	}
}

func TestMoreChannelsNeverHurt(t *testing.T) {
	sys := paperSystem(t, 45, 14, 6)
	prev := -1
	for _, c := range []int{1, 2, 4, 8} {
		plan, err := (MultiChannel{Channels: c}).OneShot(sys)
		if err != nil {
			t.Fatal(err)
		}
		w := plan.Weight(sys)
		if w < prev {
			t.Errorf("weight dropped from %d to %d at %d channels", prev, w, c)
		}
		prev = w
	}
}

func TestChannelsEliminateRTcNotRRc(t *testing.T) {
	// Two mutually interfering readers with disjoint tag populations: on
	// one channel only one can be clean; on two channels both read.
	readers := []model.Reader{
		{Pos: geom.Pt(0, 0), InterferenceR: 10, InterrogationR: 3},
		{Pos: geom.Pt(7, 0), InterferenceR: 10, InterrogationR: 3},
	}
	tags := []model.Tag{
		{Pos: geom.Pt(-2, 0)},  // reader 0 only
		{Pos: geom.Pt(9, 0)},   // reader 1 only
		{Pos: geom.Pt(3.5, 0)}, // overlap: RRc on any channels
	}
	sys, err := model.NewSystem(readers, tags)
	if err != nil {
		t.Fatal(err)
	}
	X := []int{0, 1}
	if w := sys.WeightChanneled(X, []int{0, 0}); w != 0 {
		t.Errorf("same channel: weight %d, want 0 (mutual RTc)", w)
	}
	if w := sys.WeightChanneled(X, []int{0, 1}); w != 2 {
		t.Errorf("two channels: weight %d, want 2 (RTc gone, overlap tag still RRc)", w)
	}
}

func TestWeightChanneledMismatchedLengths(t *testing.T) {
	sys := figure2System(t)
	if w := sys.WeightChanneled([]int{0, 1}, []int{0}); w != 0 {
		t.Errorf("mismatched lengths should yield 0, got %d", w)
	}
	if sys.IsChannelFeasible([]int{0}, nil) {
		t.Error("mismatched lengths reported feasible")
	}
}

func TestCoveredChanneledMatchesWeight(t *testing.T) {
	sys := paperSystem(t, 47, 12, 5)
	plan, err := (MultiChannel{Channels: 3}).OneShot(sys)
	if err != nil {
		t.Fatal(err)
	}
	covered := sys.CoveredChanneled(plan.Readers, plan.Channels, nil)
	if len(covered) != plan.Weight(sys) {
		t.Errorf("covered %d != weight %d", len(covered), plan.Weight(sys))
	}
}

func TestMultiChannelIgnoresZeroWeightReaders(t *testing.T) {
	sys := figure2System(t)
	for i := 0; i < sys.NumTags(); i++ {
		sys.MarkRead(i)
	}
	plan, err := (MultiChannel{Channels: 2}).OneShot(sys)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Readers) != 0 {
		t.Errorf("plan on all-read system: %+v", plan)
	}
}
