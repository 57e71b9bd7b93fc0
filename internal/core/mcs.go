// Package core implements the paper's contributions: the greedy Minimum
// Covering Schedule driver (Section III), Algorithm 1 — the PTAS for the
// One-Shot Schedule Problem with location information (Section IV),
// Algorithm 2 — the centralized growth-bounded scheduler without location
// information (Section V-A), and Algorithm 3 — its distributed variant
// (Section V-B).
package core

import (
	"fmt"
	"time"

	"rfidsched/internal/checkpoint"
	"rfidsched/internal/fault"
	"rfidsched/internal/model"
	"rfidsched/internal/obs"
)

// MCSOptions tunes the covering-schedule driver.
type MCSOptions struct {
	// MaxSlots caps the schedule length; if the cap is reached while
	// coverable tags remain unread, the result is marked Incomplete.
	// 0 means the default (100000).
	MaxSlots int

	// StallLimit is the number of consecutive zero-progress slots the
	// driver tolerates before it forces progress by activating a greedy
	// feasible set built from global weight (which always reads at least
	// one tag when a coverable unread tag exists). Physically this models
	// readers backing off to a conservative activation after a whole slot
	// of garbled responses. Algorithms 1/2 never stall; the guard exists
	// for Colorwave, whose randomized recoloring may take a while to
	// separate overlapping readers, and for the distributed Algorithm 3,
	// whose per-head computations cannot see interrogation overlaps between
	// clusters in different graph components. 0 means the default (2);
	// negative disables the fallback entirely.
	StallLimit int

	// RecordSlots retains a per-slot record in the result (memory ~ slots).
	RecordSlots bool

	// SolverWorkers routes a solver-level worker count into schedulers that
	// expose a SetWorkers(int) knob; 0 leaves the scheduler's own
	// configuration untouched. Only the PTAS pools its work: the MWFS
	// searches behind Growth, Distributed and baseline.Exact are sequential
	// (DESIGN.md §11), and Growth's SetWorkers is a no-op. Schedules are
	// bit-identical at every value — the knob only trades wall-clock
	// against cores. Callers running many trials concurrently should keep
	// this at 1 so trial-level and solver-level pools do not oversubscribe
	// (see experiments.Config.SolverWorkers).
	SolverWorkers int

	// SlotDeadline bounds each slot's one-shot computation in wall-clock
	// time: before every OneShot call the driver installs a fresh
	// NewDeadline(SlotDeadline) into schedulers implementing DeadlineSetter
	// (PTAS, Growth, baseline.Exact). A truncated slot still yields a
	// feasible set (the anytime contract, DESIGN.md §12) and is counted in
	// MCSResult.AnytimeSlots; a zero-progress anytime slot is eventually
	// forced forward by the stall guard, so the schedule still terminates.
	// Schedulers without the interface are unaffected. 0 disables.
	SlotDeadline time.Duration

	// SlotPollBudget is the deterministic fallback to SlotDeadline for
	// tests and CI: each slot's deadline expires after this many
	// cooperative solver polls instead of at a wall-clock instant, so
	// truncation lands on the same search node on every machine (with
	// sequential solvers; see parsearch.Deadline). Takes precedence over
	// SlotDeadline when both are set. 0 disables.
	SlotPollBudget int

	// Faults attaches an execution-time fault scenario whose tick axis is
	// the schedule slot: readers crashed or straggling at slot t fail to
	// activate that slot. The driver runs in repair mode — a fault is
	// observed only through the failed activation (tags are un-credited,
	// the slot's record shows the loss), and from the next slot on the
	// planner sees the reader as down and re-plans on the surviving
	// subgraph. Tags coverable only by permanently crashed readers are
	// abandoned honestly via LostTags/Degraded rather than looping forever.
	Faults *fault.Scenario

	// Checkpoint, when non-nil, makes the run durable: the driver appends
	// one header record up front and one slot record after every executed
	// slot (fsynced when the writer is file-backed), so a run killed at any
	// point resumes bit-identically through ResumeMCS. Checkpoint write
	// failures abort the run with an error — a checkpoint silently falling
	// behind is worse than no checkpoint.
	Checkpoint *checkpoint.Writer

	// Tracer receives slot-level trace events (see package obs): the
	// planned set, execution-time activation failures with their cause,
	// stall fallbacks, per-slot budget truncations, checkpoint writes and
	// restores, abandoned tags and the run total. nil disables tracing at
	// zero cost — every emission site is guarded, so the hot loop neither
	// builds events nor makes interface calls. Tracing is pure observation:
	// the same seed yields an identical MCSResult with a tracer attached or
	// not.
	Tracer obs.Tracer

	// Metrics, when non-nil, receives the driver's live telemetry — the
	// signals the obs telemetry server exposes at /metrics and /runs:
	//
	//   - progress gauges "mcs.slot.current", "mcs.tags.read" and
	//     "checkpoint.last_slot";
	//   - counters "mcs.slots.truncated" (per-slot budget expiries),
	//     "mcs.checkpoint.written", "mcs.checkpoint.restored", and
	//     "checkpoint.records"/"checkpoint.bytes" (via the writer's
	//     Observer hook);
	//   - per-phase duration histograms "span.solve.seconds",
	//     "span.repair.seconds" and "span.checkpoint.write.seconds"
	//     (obs.StartSpan; schedulers implementing SetMetrics — the
	//     Distributed protocol — additionally time "span.election.seconds").
	//
	// Pure observation, like Tracer: nil disables everything at zero cost,
	// and a seeded run is bit-identical with or without a registry.
	Metrics *obs.Registry
}

// SlotRecord describes one time slot of a covering schedule.
type SlotRecord struct {
	Active   []int // readers that actually activated (failed ones excluded)
	TagsRead int   // unread tags served this slot
	Fallback bool  // true if the stall guard replaced the scheduler's set
	Failed   []int // planned readers that were crashed at execution time
}

// MCSResult is the outcome of a covering-schedule run.
type MCSResult struct {
	Algorithm  string
	Size       int          // number of slots used (the paper's metric)
	TotalRead  int          // tags read over the whole schedule
	Incomplete bool         // MaxSlots hit before every reachable tag was read
	Fallbacks  int          // slots forced by the stall guard
	Slots      []SlotRecord // per-slot records if RecordSlots was set

	// AnytimeSlots counts slots whose one-shot computation was truncated by
	// the per-slot budget (SlotDeadline/SlotPollBudget) and returned an
	// anytime incumbent instead of a completed search.
	AnytimeSlots int

	// Fault telemetry (zero without MCSOptions.Faults). The honesty
	// contract: a degraded run never over-counts coverage — it reports
	// exactly what the surviving readers served and what was lost.
	Degraded          bool // some activation failed or some tags were lost
	FailedActivations int  // planned activations that crashed at execution
	LostTags          int  // unread tags coverable only by dead readers
}

// SchedulerCheckpointer is implemented by stateful schedulers (Colorwave:
// colors, frame slot, RNG) whose next decision depends on more than the
// system's read state. The driver snapshots the blob into every slot record
// and ResumeMCS restores the last one, so a resumed schedule continues the
// exact decision sequence of the interrupted run. Stateless schedulers
// (PTAS, Growth, baseline.Exact) need no blob: their decisions are a pure
// function of the replayed system state.
type SchedulerCheckpointer interface {
	// CheckpointState returns a JSON snapshot of the mutable run state.
	CheckpointState() ([]byte, error)
	// RestoreState restores a snapshot taken by CheckpointState on an
	// identically configured instance.
	RestoreState(data []byte) error
}

// RunMCS executes the greedy covering-schedule loop of Section III: at each
// time slot ask the one-shot scheduler for a feasible scheduling set,
// serve the tags it well-covers, and repeat until no coverable tag remains
// unread. With an exact (or near-optimal) one-shot scheduler this is the
// paper's log(n)-approximation for the NP-hard MCS problem (Theorem 1).
//
// With MCSOptions.Faults the driver executes against the scripted fault
// timeline: planned readers that are down at execution fail (their tags
// are not credited), the planner's view of the fleet is refreshed one slot
// behind reality (a crash is detected by its failed activation), and the
// run terminates once every tag reachable by a surviving reader is read,
// reporting Degraded/FailedActivations/LostTags.
//
// The sys read-state is mutated; callers wanting to preserve it should pass
// sys.Clone().
func RunMCS(sys *model.System, sched model.OneShotScheduler, opts MCSOptions) (*MCSResult, error) {
	eng, err := newMCSEngine(sys, sched, opts)
	if err != nil {
		return nil, err
	}
	if eng.ckpt != nil {
		if err := eng.ckpt.Append(checkpoint.KindMCSHeader, eng.header()); err != nil {
			return nil, fmt.Errorf("core: checkpoint header: %w", err)
		}
	}
	return eng.run()
}

// ResumeMCS continues a covering-schedule run from durable state written by
// a previous RunMCS with MCSOptions.Checkpoint set. The caller rebuilds the
// same system (same deployment, fresh read state), the same scheduler
// (same configuration and seed) and the same options; ResumeMCS verifies
// the checkpoint header against them, replays the recorded slots onto sys
// (tags read, counters, stall state, scheduler and fault-plan internal
// state), and runs the loop to completion. The final MCSResult is
// bit-identical to the result the uninterrupted run would have produced —
// the crash-resume determinism contract the checkpoint tests enforce,
// including under fault scenarios and parallel solver pools.
//
// When opts.Checkpoint is set, the resumed run first re-records the
// replayed history into the new stream, so the output checkpoint is itself
// complete and resumable — runs can crash and resume any number of times.
func ResumeMCS(sys *model.System, sched model.OneShotScheduler, opts MCSOptions, state *checkpoint.MCSState) (*MCSResult, error) {
	eng, err := newMCSEngine(sys, sched, opts)
	if err != nil {
		return nil, err
	}
	if err := eng.restore(state); err != nil {
		return nil, err
	}
	return eng.run()
}

// mcsEngine is the shared driver state of RunMCS and ResumeMCS: options
// resolved to their effective values, the compiled fault plan, the result
// under construction, and the loop state (the stall counter) that a resume
// must restore.
type mcsEngine struct {
	sys        *model.System
	sched      model.OneShotScheduler
	opts       MCSOptions
	maxSlots   int
	stallLimit int
	plan       *fault.Plan
	res        *MCSResult
	tr         obs.Tracer
	ckpt       *checkpoint.Writer
	stall      int
	ds         DeadlineSetter  // nil if the scheduler takes no deadline
	ar         AnytimeReporter // nil if the scheduler cannot report truncation
	budgeted   bool            // a per-slot budget is configured
}

func newMCSEngine(sys *model.System, sched model.OneShotScheduler, opts MCSOptions) (*mcsEngine, error) {
	eng := &mcsEngine{
		sys:   sys,
		sched: sched,
		opts:  opts,
		tr:    opts.Tracer,
		ckpt:  opts.Checkpoint,
		res:   &MCSResult{Algorithm: sched.Name()},
	}
	eng.maxSlots = opts.MaxSlots
	if eng.maxSlots <= 0 {
		eng.maxSlots = 100000
	}
	eng.stallLimit = opts.StallLimit
	if eng.stallLimit == 0 {
		eng.stallLimit = 2
	}
	if opts.Faults != nil && !opts.Faults.IsZero() {
		p, err := opts.Faults.Compile(sys.NumReaders())
		if err != nil {
			return nil, fmt.Errorf("core: fault scenario: %w", err)
		}
		eng.plan = p
	}
	if opts.SolverWorkers != 0 {
		if sw, ok := sched.(interface{ SetWorkers(int) }); ok {
			sw.SetWorkers(opts.SolverWorkers)
		}
	}
	eng.ds, _ = sched.(DeadlineSetter)
	eng.ar, _ = sched.(AnytimeReporter)
	eng.budgeted = opts.SlotPollBudget > 0 || opts.SlotDeadline > 0
	if reg := opts.Metrics; reg != nil {
		// Route the registry into schedulers that carry their own span
		// telemetry (Distributed times its elections).
		if sm, ok := sched.(interface{ SetMetrics(*obs.Registry) }); ok {
			sm.SetMetrics(reg)
		}
		// Count durable records and bytes at the writer, so checkpoint
		// volume is visible next to the lag gauge.
		if eng.ckpt != nil {
			eng.ckpt.Observer = func(kind string, n int) {
				reg.Counter("checkpoint.records").Inc()
				reg.Counter("checkpoint.bytes").Add(int64(n))
			}
		}
	}
	return eng, nil
}

// header identifies the run in its checkpoint stream.
func (eng *mcsEngine) header() checkpoint.MCSHeader {
	return checkpoint.MCSHeader{
		Algorithm: eng.sched.Name(),
		Readers:   eng.sys.NumReaders(),
		Tags:      eng.sys.NumTags(),
	}
}

// slotDeadline builds the fresh per-slot budget. Each slot gets its own
// deadline so truncation in one slot cannot bleed into the next — which is
// also what keeps poll-budget runs resumable: the budget of the slot being
// re-executed after a crash starts from the same count it originally did.
func (eng *mcsEngine) slotDeadline() *Deadline {
	if eng.opts.SlotPollBudget > 0 {
		return NewPollBudget(eng.opts.SlotPollBudget)
	}
	return NewDeadline(eng.opts.SlotDeadline)
}

// restore replays checkpointed state onto the engine: header verification,
// tag reads, result counters, the stall counter, and the fault-plan and
// scheduler internal state snapshotted after the last durable slot.
func (eng *mcsEngine) restore(state *checkpoint.MCSState) error {
	if state == nil {
		return fmt.Errorf("core: ResumeMCS requires a checkpoint state")
	}
	h := state.Header
	if h.Algorithm != eng.sched.Name() {
		return fmt.Errorf("core: checkpoint belongs to algorithm %q, resuming with %q", h.Algorithm, eng.sched.Name())
	}
	if h.Readers != eng.sys.NumReaders() || h.Tags != eng.sys.NumTags() {
		return fmt.Errorf("core: checkpoint is for %d readers / %d tags, system has %d / %d",
			h.Readers, h.Tags, eng.sys.NumReaders(), eng.sys.NumTags())
	}
	for _, rec := range state.Slots {
		for _, t := range rec.ReadTags {
			if t < 0 || t >= eng.sys.NumTags() {
				return fmt.Errorf("core: checkpoint slot %d reads tag %d, out of range", rec.Slot, t)
			}
			eng.sys.MarkRead(t)
		}
		eng.res.Size++
		eng.res.TotalRead += len(rec.ReadTags)
		if rec.Fallback {
			eng.res.Fallbacks++
		}
		if rec.Anytime {
			eng.res.AnytimeSlots++
		}
		eng.res.FailedActivations += len(rec.Failed)
		eng.stall = rec.Stall
		if eng.opts.RecordSlots {
			eng.res.Slots = append(eng.res.Slots, SlotRecord{
				Active:   rec.Active,
				TagsRead: len(rec.ReadTags),
				Fallback: rec.Fallback,
				Failed:   rec.Failed,
			})
		}
	}
	if n := len(state.Slots); n > 0 {
		last := state.Slots[n-1]
		switch {
		case last.PlanRNG != nil && eng.plan == nil:
			return fmt.Errorf("core: checkpoint carries fault-plan state but the resumed run has no fault scenario")
		case last.PlanRNG == nil && eng.plan != nil:
			return fmt.Errorf("core: resumed run has a fault scenario but the checkpoint carries no fault-plan state")
		case last.PlanRNG != nil:
			eng.plan.RestoreRNG(last.PlanRNG.State, last.PlanRNG.Inc)
		}
		if sc, ok := eng.sched.(SchedulerCheckpointer); ok {
			if len(last.Sched) == 0 {
				return fmt.Errorf("core: %s expects scheduler state in the checkpoint, found none", eng.sched.Name())
			}
			if err := sc.RestoreState(last.Sched); err != nil {
				return fmt.Errorf("core: restore %s state: %w", eng.sched.Name(), err)
			}
		}
	}
	if eng.tr != nil {
		eng.tr.Emit(obs.EvCheckpointRestored(eng.res.Size, eng.res.TotalRead))
	}
	if reg := eng.opts.Metrics; reg != nil {
		reg.Counter("mcs.checkpoint.restored").Add(1)
		// Seed the progress gauges from the replayed history, so a freshly
		// resumed run's /runs view starts at the restored position instead
		// of the -1 "no run" sentinels.
		reg.Gauge("mcs.slot.current").Set(float64(eng.res.Size))
		reg.Gauge("mcs.tags.read").Set(float64(eng.res.TotalRead))
		if eng.res.Size > 0 {
			reg.Gauge("checkpoint.last_slot").Set(float64(eng.res.Size - 1))
		}
	}
	// Re-record the replayed history into the new stream so the output
	// checkpoint is complete: a run may crash and resume repeatedly.
	if eng.ckpt != nil {
		if err := eng.ckpt.Append(checkpoint.KindMCSHeader, eng.header()); err != nil {
			return fmt.Errorf("core: checkpoint header: %w", err)
		}
		for _, rec := range state.Slots {
			if err := eng.ckpt.Append(checkpoint.KindMCSSlot, rec); err != nil {
				return fmt.Errorf("core: checkpoint replay slot %d: %w", rec.Slot, err)
			}
		}
	}
	return nil
}

// run executes the greedy loop from the engine's current position (slot 0
// for a fresh run, the first unrecorded slot after restore).
func (eng *mcsEngine) run() (*MCSResult, error) {
	sys, sched, res, tr, plan := eng.sys, eng.sched, eng.res, eng.tr, eng.plan
	reg := eng.opts.Metrics
	for reachableUnread(sys, plan, res.Size) > 0 {
		if res.Size >= eng.maxSlots {
			res.Incomplete = true
			break
		}
		slot := res.Size
		if reg != nil {
			reg.Gauge("mcs.slot.current").Set(float64(slot))
		}
		if plan != nil {
			// The planner's knowledge lags reality by one slot: a crash at
			// slot t is discovered through its failed activation and only
			// planned around from slot t+1.
			applyDownMask(sys, plan, slot-1)
		}
		if eng.budgeted && eng.ds != nil {
			eng.ds.SetDeadline(eng.slotDeadline())
		}
		solveSpan := obs.StartSpan(reg, obs.SpanSolve)
		X, err := sched.OneShot(sys)
		solveSpan.End()
		if err != nil {
			return nil, fmt.Errorf("core: %s one-shot failed at slot %d: %w", sched.Name(), res.Size, err)
		}
		if tr != nil {
			tr.Emit(obs.EvSlotPlanned(slot, res.Algorithm, X))
		}
		anytime := eng.ar != nil && eng.ar.Anytime()
		if anytime {
			res.AnytimeSlots++
			if tr != nil {
				tr.Emit(obs.EvSlotTruncated(slot, res.Algorithm))
			}
			if eng.opts.Metrics != nil {
				eng.opts.Metrics.Counter("mcs.slots.truncated").Add(1)
			}
		}
		var failed []int
		var repairSpan obs.Span
		if plan != nil {
			// The repair span covers the fault-facing work of the slot: the
			// executable split plus any stall fallback it forces.
			repairSpan = obs.StartSpan(reg, obs.SpanRepair)
			X, failed = splitExecutable(sys, plan, X, slot)
			res.FailedActivations += len(failed)
			if tr != nil {
				for _, v := range failed {
					tr.Emit(obs.EvActivationFailed(slot, v, failCause(plan, v, slot)))
				}
			}
		}
		covered := sys.Covered(X, nil)
		fallback := false
		if len(covered) == 0 {
			eng.stall++
			if eng.stallLimit > 0 && eng.stall > eng.stallLimit {
				if plan != nil {
					// The conservative fallback is driver-internal: give it
					// the true current fleet so it never wastes the slot on
					// a radio known dark this very slot.
					applyDownMask(sys, plan, slot)
				}
				X = greedyFallback(sys)
				covered = sys.Covered(X, nil)
				fallback = true
				res.Fallbacks++
				eng.stall = 0
				if tr != nil {
					tr.Emit(obs.EvStallFallback(slot, X))
				}
			}
		} else {
			eng.stall = 0
		}
		if plan != nil {
			repairSpan.End()
		}
		for _, t := range covered {
			sys.MarkRead(int(t))
		}
		res.Size++
		res.TotalRead += len(covered)
		if reg != nil {
			reg.Gauge("mcs.tags.read").Set(float64(res.TotalRead))
		}
		if tr != nil {
			tr.Emit(obs.EvSlotExecuted(slot, X, len(covered)))
		}
		if eng.opts.RecordSlots {
			res.Slots = append(res.Slots, SlotRecord{
				Active:   append([]int(nil), X...),
				TagsRead: len(covered),
				Fallback: fallback,
				Failed:   failed,
			})
		}
		if eng.ckpt != nil {
			rec := checkpoint.MCSSlot{
				Slot:     slot,
				Active:   append([]int(nil), X...),
				Fallback: fallback,
				Failed:   failed,
				Anytime:  anytime,
				Stall:    eng.stall,
			}
			if len(covered) > 0 {
				rec.ReadTags = make([]int, len(covered))
				for i, t := range covered {
					rec.ReadTags[i] = int(t)
				}
			}
			if plan != nil {
				st, inc := plan.RNGState()
				rec.PlanRNG = &checkpoint.RNGState{State: st, Inc: inc}
			}
			if sc, ok := sched.(SchedulerCheckpointer); ok {
				blob, err := sc.CheckpointState()
				if err != nil {
					return nil, fmt.Errorf("core: %s checkpoint state at slot %d: %w", sched.Name(), slot, err)
				}
				rec.Sched = blob
			}
			ckptSpan := obs.StartSpan(reg, obs.SpanCheckpointWrite)
			err := eng.ckpt.Append(checkpoint.KindMCSSlot, rec)
			ckptSpan.End()
			if err != nil {
				return nil, fmt.Errorf("core: checkpoint slot %d: %w", slot, err)
			}
			if tr != nil {
				tr.Emit(obs.EvCheckpointWritten(slot, res.TotalRead))
			}
			if reg != nil {
				reg.Counter("mcs.checkpoint.written").Add(1)
				reg.Gauge("checkpoint.last_slot").Set(float64(slot))
			}
		}
	}
	if eng.budgeted && eng.ds != nil {
		// Leave the scheduler reusable: the last slot's (possibly expired)
		// deadline must not bleed into a later run without a budget.
		eng.ds.SetDeadline(nil)
	}
	if plan != nil {
		lost := lostTagIDs(sys, plan, res.Size)
		res.LostTags = len(lost)
		res.Degraded = res.FailedActivations > 0 || res.LostTags > 0
		if tr != nil {
			for _, t := range lost {
				tr.Emit(obs.EvTagAbandoned(res.Size, t))
			}
		}
	}
	if tr != nil {
		tr.Emit(obs.EvRunCompleted(res.Size, res.TotalRead, res.Algorithm, runStatus(res.Degraded, res.Incomplete)))
	}
	return res, nil
}

// failCause classifies why a planned activation failed at slot; a reader
// both crashed and straggling is reported as crashed.
func failCause(plan *fault.Plan, reader, slot int) string {
	if plan.Crashed(reader, slot) {
		return "crash"
	}
	return "straggle"
}

// runStatus is the run_completed trace label shared with slotsim.
func runStatus(degraded, incomplete bool) string {
	switch {
	case incomplete:
		return "incomplete"
	case degraded:
		return "degraded"
	default:
		return "ok"
	}
}

// applyDownMask sets the system's down mask to the fleet state at the given
// slot (negative slots mean "nothing observed yet": all up).
func applyDownMask(sys *model.System, plan *fault.Plan, slot int) {
	for r := 0; r < sys.NumReaders(); r++ {
		down := slot >= 0 && (plan.Crashed(r, slot) || plan.Straggling(r, slot))
		sys.SetReaderDown(r, down)
	}
}

// splitExecutable separates the planned set X into readers that actually
// activate at slot and those that fail. Readers the planner already knew
// were down (mask set) are dropped silently — they were planner slop with
// zero weight, not a newly observed fault.
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

// reachableUnread counts unread tags that some not-permanently-crashed
// reader covers: the honest termination condition under faults. A reader in
// a crash-with-recovery window still counts — its tags are worth waiting
// for — while a fail-stopped reader's exclusive tags are abandoned.
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

// lostTagIDs lists unread tags that are coverable in geometry but whose
// every covering reader is permanently dead — the coverage a degraded run
// honestly gives up on. Ascending tag order (deterministic for tracing).
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

// greedyFallback builds a feasible scheduling set by repeatedly adding the
// reader with the largest strictly positive marginal weight. With at least
// one coverable unread tag the result is non-empty and reads at least one
// tag, because a reader activated alone well-covers every unread tag in its
// interrogation region, so the first iteration always finds a positive
// marginal. Down readers have zero marginal weight and are never picked.
func greedyFallback(sys *model.System) []int {
	return augmentFeasible(sys, nil)
}
