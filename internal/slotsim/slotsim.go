// Package slotsim is the discrete slot-level simulator gluing a reader
// activation schedule to the link layer: it is the instrument corresponding
// to the paper's "custom simulator" (Section VI) plus a finer-grained
// air-time model.
//
// Each macro slot activates the reader set chosen by a one-shot scheduler;
// every clean (non-RTc) reader then inventories its well-covered tags with
// a tag anti-collision protocol, costing link-layer micro slots. The
// simulator therefore reports both the paper's metric (macro slots until
// every coverable tag is read) and total air time (micro slots), along with
// RTc/RRc collision telemetry per slot.
//
// As an extension beyond the paper's static-tag model (its Related Work
// points out that EGA assumes "no new tags will appear in the system
// dynamically"), the simulator optionally injects tag arrivals between
// macro slots, rebuilding coverage incrementally, so churn experiments can
// measure how the schedulers track a moving population.
package slotsim

import (
	"fmt"
	"slices"
	"time"

	"rfidsched/internal/anticollision"
	"rfidsched/internal/fault"
	"rfidsched/internal/geom"
	"rfidsched/internal/model"
	"rfidsched/internal/obs"
	"rfidsched/internal/parsearch"
	"rfidsched/internal/randx"
)

// Config tunes a simulation run.
type Config struct {
	// Link is the tag anti-collision protocol used inside each macro slot.
	// nil models the paper's idealized slot: every well-covered tag is read
	// in exactly one micro slot.
	Link anticollision.Protocol

	// MaxMacroSlots caps the run (0 = 100000).
	MaxMacroSlots int

	// Seed drives link-layer randomness and arrivals.
	Seed uint64

	// RecordTimeline retains per-slot statistics.
	RecordTimeline bool

	// SolverWorkers routes a worker count into schedulers exposing a
	// SetWorkers(int) knob, mirroring core.MCSOptions.SolverWorkers; only
	// the PTAS pools its work. 0 leaves the scheduler untouched. Results
	// are bit-identical at every value.
	SolverWorkers int

	// SlotDeadline bounds each macro slot's one-shot computation in
	// wall-clock time, mirroring core.MCSOptions.SlotDeadline: before every
	// OneShot call a fresh deadline is installed into schedulers exposing a
	// SetDeadline knob (PTAS, Growth, baseline.Exact). Truncated slots
	// return anytime incumbents (still feasible) and are counted in
	// Result.AnytimeSlots. 0 disables.
	SlotDeadline time.Duration

	// SlotPollBudget is the deterministic fallback to SlotDeadline: the
	// per-slot deadline expires after this many cooperative solver polls,
	// so tests truncate at the same node everywhere. Takes precedence over
	// SlotDeadline. 0 disables.
	SlotPollBudget int

	// ArrivalRate is the Poisson mean of new tags appearing per macro slot
	// (0 = the paper's static population). Arrivals are uniform in the
	// arrival region.
	ArrivalRate float64

	// ArrivalRegion is the box new tags appear in; the zero value uses the
	// system's bounding box.
	ArrivalRegion geom.Rect

	// MaxArrivals caps total injected tags so runs terminate (default
	// 10x initial population when ArrivalRate > 0).
	MaxArrivals int

	// Faults scripts reader failures against the run; its tick axis is the
	// macro slot. The simulator mirrors the repair semantics of the MCS
	// driver: readers crashed or straggling at slot t fail to activate
	// (their tags go unread and the failure is recorded), the scheduler's
	// view of the fleet lags one slot behind reality, and tags coverable
	// only by permanently dead readers are given up honestly rather than
	// chased forever.
	Faults *fault.Scenario

	// Tracer receives macro-slot trace events (see package obs), the
	// same taxonomy as core.RunMCS so one summarizer serves both
	// engines. nil disables tracing at zero cost (guarded call sites),
	// and tracing never perturbs the link-layer RNG: same seed, same
	// Result, tracer or not.
	Tracer obs.Tracer
}

// SlotStats records one macro slot.
type SlotStats struct {
	Slot       int
	Active     []int
	TagsRead   int
	MicroSlots int
	RTcReaders int
	RRcTags    int
	Arrivals   int
	Failed     []int // planned readers that were down at execution time
}

// Result is the outcome of a simulation.
type Result struct {
	Algorithm       string
	MacroSlots      int
	TotalMicroSlots int
	TagsRead        int
	TagsInjected    int
	Incomplete      bool
	Timeline        []SlotStats

	// AnytimeSlots counts macro slots whose one-shot computation was
	// truncated by the per-slot budget (Config.SlotDeadline/SlotPollBudget).
	AnytimeSlots int

	// Fault telemetry (zero without Config.Faults); same honesty contract
	// as core.MCSResult — a degraded run reports exactly what survived.
	Degraded          bool
	FailedActivations int
	LostTags          int

	// Final is the system state at the end of the run. With tag arrivals
	// the simulator rebuilds the system, so the caller's original pointer
	// goes stale; read the final population from here.
	Final *model.System
}

// Run simulates sched on sys until every coverable tag has been read (and,
// with churn enabled, the arrival budget is exhausted and drained). The
// system's read state is mutated; pass a clone to preserve the original.
func Run(sys *model.System, sched model.OneShotScheduler, cfg Config) (*Result, error) {
	maxSlots := cfg.MaxMacroSlots
	if maxSlots <= 0 {
		maxSlots = 100000
	}
	if cfg.SolverWorkers != 0 {
		if sw, ok := sched.(interface{ SetWorkers(int) }); ok {
			sw.SetWorkers(cfg.SolverWorkers)
		}
	}
	rng := randx.New(cfg.Seed)
	res := &Result{Algorithm: sched.Name()}
	tr := cfg.Tracer

	// Per-slot budget plumbing, structurally typed so slotsim stays
	// independent of the scheduler package (the method set matches
	// core.DeadlineSetter / core.AnytimeReporter).
	budgeted := cfg.SlotPollBudget > 0 || cfg.SlotDeadline > 0
	ds, _ := sched.(interface{ SetDeadline(*parsearch.Deadline) })
	ar, _ := sched.(interface{ Anytime() bool })
	slotDeadline := func() *parsearch.Deadline {
		if cfg.SlotPollBudget > 0 {
			return parsearch.PollBudget(cfg.SlotPollBudget)
		}
		return parsearch.After(cfg.SlotDeadline)
	}
	var plan *fault.Plan
	if cfg.Faults != nil && !cfg.Faults.IsZero() {
		p, err := cfg.Faults.Compile(sys.NumReaders())
		if err != nil {
			return nil, fmt.Errorf("slotsim: fault scenario: %w", err)
		}
		plan = p
	}

	arrivalsLeft := 0
	if cfg.ArrivalRate > 0 {
		arrivalsLeft = cfg.MaxArrivals
		if arrivalsLeft <= 0 {
			arrivalsLeft = 10 * sys.NumTags()
		}
	}
	region := cfg.ArrivalRegion
	if region.Width() == 0 || region.Height() == 0 {
		region = sys.Bounds()
	}

	for reachableUnread(sys, plan, res.MacroSlots) > 0 || arrivalsLeft > 0 {
		if res.MacroSlots >= maxSlots {
			res.Incomplete = true
			break
		}
		// Inject arrivals before scheduling the slot.
		arrived := 0
		if cfg.ArrivalRate > 0 && arrivalsLeft > 0 {
			arrived = rng.Poisson(cfg.ArrivalRate)
			if arrived > arrivalsLeft {
				arrived = arrivalsLeft
			}
			arrivalsLeft -= arrived
			if arrived > 0 {
				var err error
				sys, err = injectTags(sys, arrived, region, rng)
				if err != nil {
					return nil, err
				}
				res.TagsInjected += arrived
			}
		}
		slot := res.MacroSlots
		if reachableUnread(sys, plan, slot) == 0 {
			if arrivalsLeft == 0 {
				break
			}
			// Nothing to read yet; an idle macro slot passes while we wait
			// for arrivals.
			res.MacroSlots++
			continue
		}

		if plan != nil {
			// As in core.RunMCS, the scheduler learns of a failure only
			// through the failed activation: plan with last slot's fleet.
			applyDownMask(sys, plan, slot-1)
		}
		if budgeted && ds != nil {
			ds.SetDeadline(slotDeadline())
		}
		X, err := sched.OneShot(sys)
		if err != nil {
			return nil, fmt.Errorf("slotsim: %s failed at slot %d: %w", sched.Name(), res.MacroSlots, err)
		}
		if tr != nil {
			tr.Emit(obs.EvSlotPlanned(slot, res.Algorithm, X))
		}
		if ar != nil && ar.Anytime() {
			res.AnytimeSlots++
			if tr != nil {
				tr.Emit(obs.EvSlotTruncated(slot, res.Algorithm))
			}
		}
		var failedX []int
		if plan != nil {
			X, failedX = splitExecutable(sys, plan, X, slot)
			res.FailedActivations += len(failedX)
			if tr != nil {
				for _, v := range failedX {
					tr.Emit(obs.EvActivationFailed(slot, v, failCause(plan, v, slot)))
				}
			}
			applyDownMask(sys, plan, slot) // the guard below must see the true fleet
		}
		covered := sys.Covered(X, nil)
		if len(covered) == 0 && sys.UnreadCoverableCount() > 0 {
			// Zero-progress guard: replace a useless activation with the
			// best singleton so the run always terminates (slot-level
			// experiments should not burn hundreds of dead slots the way
			// a patient MCS driver can afford to).
			X = []int{bestSingleton(sys)}
			covered = sys.Covered(X, nil)
			if tr != nil {
				tr.Emit(obs.EvStallFallback(slot, X))
			}
		}
		col := sys.Collisions(X)

		micro := len(covered) // ideal link layer: one micro slot per tag
		if cfg.Link != nil {
			micro = 0
			counts := perReaderCounts(sys, X, covered)
			// Deterministic reader order: the link-layer RNG is shared, so
			// map-iteration order would otherwise leak into the totals.
			owners := make([]int, 0, len(counts))
			for v := range counts {
				owners = append(owners, v)
			}
			slices.Sort(owners)
			for _, v := range owners {
				micro += cfg.Link.Inventory(counts[v], rng).Slots
			}
		}
		for _, t := range covered {
			sys.MarkRead(int(t))
		}

		res.MacroSlots++
		res.TotalMicroSlots += micro
		res.TagsRead += len(covered)
		if tr != nil {
			tr.Emit(obs.EvSlotExecuted(slot, X, len(covered)))
		}
		if cfg.RecordTimeline {
			res.Timeline = append(res.Timeline, SlotStats{
				Slot:       res.MacroSlots - 1,
				Active:     append([]int(nil), X...),
				TagsRead:   len(covered),
				MicroSlots: micro,
				RTcReaders: col.RTcReaders,
				RRcTags:    col.RRcTags,
				Arrivals:   arrived,
				Failed:     failedX,
			})
		}
	}
	if budgeted && ds != nil {
		ds.SetDeadline(nil) // leave the scheduler reusable
	}
	if plan != nil {
		lost := lostTagIDs(sys, plan, res.MacroSlots)
		res.LostTags = len(lost)
		res.Degraded = res.FailedActivations > 0 || res.LostTags > 0
		if tr != nil {
			for _, t := range lost {
				tr.Emit(obs.EvTagAbandoned(res.MacroSlots, t))
			}
		}
	}
	if tr != nil {
		status := "ok"
		switch {
		case res.Incomplete:
			status = "incomplete"
		case res.Degraded:
			status = "degraded"
		}
		tr.Emit(obs.EvRunCompleted(res.MacroSlots, res.TagsRead, res.Algorithm, status))
	}
	res.Final = sys
	return res, nil
}

// failCause classifies a failed activation; crash wins over straggle.
func failCause(plan *fault.Plan, reader, slot int) string {
	if plan.Crashed(reader, slot) {
		return "crash"
	}
	return "straggle"
}

// applyDownMask, splitExecutable, reachableUnread and lostTagIDs mirror the
// repair semantics of core.RunMCS on the simulator's macro-slot axis (local
// copies keep slotsim independent of the scheduler package).

func applyDownMask(sys *model.System, plan *fault.Plan, slot int) {
	for r := 0; r < sys.NumReaders(); r++ {
		down := slot >= 0 && (plan.Crashed(r, slot) || plan.Straggling(r, slot))
		sys.SetReaderDown(r, down)
	}
}

func splitExecutable(sys *model.System, plan *fault.Plan, X []int, slot int) (live, failed []int) {
	for _, v := range X {
		switch {
		case !plan.Crashed(v, slot) && !plan.Straggling(v, slot):
			live = append(live, v)
		case !sys.ReaderDown(v):
			failed = append(failed, v)
		}
	}
	return live, failed
}

func reachableUnread(sys *model.System, plan *fault.Plan, slot int) int {
	if plan == nil {
		return sys.UnreadCoverableCount()
	}
	n := 0
	for t := 0; t < sys.NumTags(); t++ {
		if sys.IsRead(t) {
			continue
		}
		for _, r := range sys.ReadersOf(t) {
			if !plan.PermanentlyDown(int(r), slot) {
				n++
				break
			}
		}
	}
	return n
}

func lostTagIDs(sys *model.System, plan *fault.Plan, slot int) []int {
	var lost []int
	for t := 0; t < sys.NumTags(); t++ {
		if sys.IsRead(t) || len(sys.ReadersOf(t)) == 0 {
			continue
		}
		dead := true
		for _, r := range sys.ReadersOf(t) {
			if !plan.PermanentlyDown(int(r), slot) {
				dead = false
				break
			}
		}
		if dead {
			lost = append(lost, t)
		}
	}
	return lost
}

// perReaderCounts returns, for each clean active reader, how many of the
// covered tags it owns (the population it must singulate).
func perReaderCounts(sys *model.System, X []int, covered []int32) map[int]int {
	owner := make(map[int32]int, len(covered))
	counts := make(map[int]int)
	for _, t := range covered {
		// The owner is the unique active reader covering t.
		for _, r := range sys.ReadersOf(int(t)) {
			for _, v := range X {
				if int(r) == v {
					owner[t] = v
				}
			}
		}
	}
	for _, v := range owner {
		counts[v]++
	}
	return counts
}

// bestSingleton is the zero-progress fallback picker. SingletonWeight is an
// O(1) counter read (maintained by MarkRead), so the scan is O(readers) —
// it no longer walks every reader's tag list the way the pre-incremental
// model forced it to.
func bestSingleton(sys *model.System) int {
	best, bestW := 0, -1
	for v := 0; v < sys.NumReaders(); v++ {
		if w := sys.SingletonWeight(v); w > bestW {
			best, bestW = v, w
		}
	}
	return best
}

// injectTags rebuilds the system with extra tags appended, carrying over
// the read state of the existing population.
func injectTags(sys *model.System, n int, region geom.Rect, rng *randx.RNG) (*model.System, error) {
	readers := sys.Readers()
	oldTags := sys.Tags()
	tags := make([]model.Tag, 0, len(oldTags)+n)
	tags = append(tags, oldTags...)
	for i := 0; i < n; i++ {
		tags = append(tags, model.Tag{Pos: geom.Pt(
			rng.UniformRange(region.Min.X, region.Max.X),
			rng.UniformRange(region.Min.Y, region.Max.Y),
		)})
	}
	next, err := model.NewSystem(readers, tags)
	if err != nil {
		return nil, fmt.Errorf("slotsim: rebuilding system with arrivals: %w", err)
	}
	for t := 0; t < len(oldTags); t++ {
		if sys.IsRead(t) {
			next.MarkRead(t)
		}
	}
	return next, nil
}
