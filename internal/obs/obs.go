// Package obs is the observability layer of the scheduling stack: slot-level
// tracing, a metrics registry, profiling hooks, and structured logging —
// stdlib only, like every other substrate in this repository.
//
// The design splits observation from interpretation. The execution engines
// (core.RunMCS, core.Distributed, distnet, slotsim) emit typed events
// through a Tracer; sinks decide what to do with them — append JSONL lines
// (JSONL), aggregate into metrics (NewMetricsTracer), buffer for assertions
// (Collector), or fan out (Tee). A nil Tracer is the disabled state: every
// call site is guarded with `if tr != nil`, so the event struct is never
// even built and the instrumented hot paths stay allocation-free (see
// BenchmarkRunMCSTracerNil in package core and cmd/microbench).
//
// Tracing is strictly read-only observation. No engine consults the tracer
// for decisions and no RNG is shared with it, so a seeded run produces an
// identical result with tracing on or off — the determinism contract
// DESIGN.md §9 spells out and the engines' trace tests enforce.
package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// EventType names one kind of trace event.
type EventType string

// The event taxonomy. Tick axes: schedule/macro slots for the slot events,
// protocol rounds for the network events.
const (
	// SlotPlanned: the one-shot scheduler proposed reader set Readers for
	// slot T (before execution-time faults are applied). Alg carries the
	// scheduler name.
	SlotPlanned EventType = "slot_planned"
	// SlotExecuted: slot T actually activated Readers and read N unread
	// tags.
	SlotExecuted EventType = "slot_executed"
	// ActivationFailed: planned Reader was down at execution of slot T;
	// Cause is "crash" or "straggle".
	ActivationFailed EventType = "activation_failed"
	// StallFallback: the stall guard replaced the scheduler's set with the
	// conservative greedy set Readers at slot T.
	StallFallback EventType = "stall_fallback"
	// TagAbandoned: at end of run (slot T), unread Tag was given up because
	// every covering reader is permanently dead; Cause is "readers-dead".
	TagAbandoned EventType = "tag_abandoned"
	// MessageDropped: the protocol network dropped a From→To message at
	// round T; Cause is "loss", "partition" or "down".
	MessageDropped EventType = "msg_dropped"
	// ElectionCompleted: one distributed one-shot computation (a full
	// coordinator-election protocol run) finished: the T-th call on this
	// scheduler took N rounds and M messages and decided Readers.
	ElectionCompleted EventType = "election_completed"
	// RunCompleted: a covering-schedule or simulator run ended after T
	// slots having read N tags; Cause is "ok", "degraded" or "incomplete".
	RunCompleted EventType = "run_completed"
	// SlotTruncated: slot T's one-shot computation hit its per-slot budget
	// and the scheduler (Alg) returned its anytime incumbent instead of
	// finishing the search.
	SlotTruncated EventType = "slot_truncated"
	// CheckpointWritten: durable driver state through slot T was flushed;
	// N is the cumulative tags-read count the checkpoint records.
	CheckpointWritten EventType = "checkpoint_written"
	// CheckpointRestored: a run resumed from durable state at slot T; N is
	// the restored cumulative tags-read count.
	CheckpointRestored EventType = "checkpoint_restored"
	// RequestPhase: one phase of a service request's lifecycle (decode,
	// queue, solve, verify, encode, ...) finished. Run carries the request's
	// trace ID, Cause the phase name, N the phase duration in nanoseconds.
	// Emitted into the flight recorder for slow requests so a post-mortem
	// dump carries the request's full breakdown (DESIGN.md §16).
	RequestPhase EventType = "request_phase"
	// RequestCompleted: a service request finished. Run carries the trace
	// ID, Cause the endpoint, Alg the requested algorithm, M the HTTP
	// status, N the total duration in nanoseconds.
	RequestCompleted EventType = "request_completed"
)

// Event is one trace record. Numeric fields that do not apply to a given
// type are -1 (and still marshaled), so a trace line is never ambiguous
// about reader/tag id 0. The constructors below set the convention; build
// events through them.
type Event struct {
	Type EventType `json:"type"`
	// Run identifies the run the event belongs to when one sink serves
	// many concurrent runs (see WithRun); empty for single-run traces.
	Run string `json:"run,omitempty"`
	// T is the event's tick on its own axis: slot number for slot events,
	// round number for msg_dropped, call index for election_completed,
	// final size for run_completed.
	T      int    `json:"t"`
	Reader int    `json:"reader"`
	Tag    int    `json:"tag"`
	From   int    `json:"from"`
	To     int    `json:"to"`
	N      int    `json:"n"` // primary count payload
	M      int    `json:"m"` // secondary count payload
	Cause  string `json:"cause,omitempty"`
	Alg    string `json:"alg,omitempty"`
	// Readers is the reader set the event concerns (planned, active,
	// fallback or decided set).
	Readers []int `json:"readers,omitempty"`
}

// base returns an event with every inapplicable numeric field at -1.
func base(t EventType, tick int) Event {
	return Event{Type: t, T: tick, Reader: -1, Tag: -1, From: -1, To: -1, N: -1, M: -1}
}

// EvSlotPlanned builds a slot_planned event. The readers slice is copied so
// engines may keep mutating their working set.
func EvSlotPlanned(slot int, alg string, readers []int) Event {
	e := base(SlotPlanned, slot)
	e.Alg = alg
	e.Readers = append([]int(nil), readers...)
	return e
}

// EvSlotExecuted builds a slot_executed event.
func EvSlotExecuted(slot int, readers []int, tagsRead int) Event {
	e := base(SlotExecuted, slot)
	e.Readers = append([]int(nil), readers...)
	e.N = tagsRead
	return e
}

// EvActivationFailed builds an activation_failed event.
func EvActivationFailed(slot, reader int, cause string) Event {
	e := base(ActivationFailed, slot)
	e.Reader = reader
	e.Cause = cause
	return e
}

// EvStallFallback builds a stall_fallback event.
func EvStallFallback(slot int, readers []int) Event {
	e := base(StallFallback, slot)
	e.Readers = append([]int(nil), readers...)
	return e
}

// EvTagAbandoned builds a tag_abandoned event.
func EvTagAbandoned(slot, tag int) Event {
	e := base(TagAbandoned, slot)
	e.Tag = tag
	e.Cause = "readers-dead"
	return e
}

// EvMessageDropped builds a msg_dropped event.
func EvMessageDropped(round, from, to int, cause string) Event {
	e := base(MessageDropped, round)
	e.From, e.To = from, to
	e.Cause = cause
	return e
}

// EvElectionCompleted builds an election_completed event for the call-th
// one-shot protocol execution, which used rounds rounds and messages
// messages and decided the given reader set.
func EvElectionCompleted(call, rounds, messages int, readers []int) Event {
	e := base(ElectionCompleted, call)
	e.N = rounds
	e.M = messages
	e.Readers = append([]int(nil), readers...)
	return e
}

// EvSlotTruncated builds a slot_truncated event: slot's one-shot hit its
// budget and alg returned an anytime incumbent.
func EvSlotTruncated(slot int, alg string) Event {
	e := base(SlotTruncated, slot)
	e.Alg = alg
	return e
}

// EvCheckpointWritten builds a checkpoint_written event for the checkpoint
// covering everything through slot, with the cumulative tags-read count.
func EvCheckpointWritten(slot, totalRead int) Event {
	e := base(CheckpointWritten, slot)
	e.N = totalRead
	return e
}

// EvCheckpointRestored builds a checkpoint_restored event: the run resumed
// at slot with totalRead tags already credited.
func EvCheckpointRestored(slot, totalRead int) Event {
	e := base(CheckpointRestored, slot)
	e.N = totalRead
	return e
}

// EvRequestPhase builds a request_phase event: the request identified by
// trace spent durNs nanoseconds in the named lifecycle phase.
func EvRequestPhase(trace, phase string, durNs int64) Event {
	e := base(RequestPhase, -1)
	e.Run = trace
	e.Cause = phase
	e.N = int(durNs)
	return e
}

// EvRequestCompleted builds a request_completed event: the request
// identified by trace against the named endpoint (and algorithm, when it
// reached one) finished with the given HTTP status after durNs nanoseconds.
func EvRequestCompleted(trace, endpoint, alg string, status int, durNs int64) Event {
	e := base(RequestCompleted, -1)
	e.Run = trace
	e.Cause = endpoint
	e.Alg = alg
	e.M = status
	e.N = int(durNs)
	return e
}

// EvRunCompleted builds a run_completed event; status is "ok", "degraded"
// or "incomplete".
func EvRunCompleted(slots, tagsRead int, alg, status string) Event {
	e := base(RunCompleted, slots)
	e.N = tagsRead
	e.Alg = alg
	e.Cause = status
	return e
}

// Tracer receives trace events. Implementations must be safe for concurrent
// Emit calls: the experiment harness runs trials in parallel against one
// shared sink. A nil Tracer means tracing is off — call sites guard, they
// do not call.
type Tracer interface {
	Emit(Event)
}

// JSONL appends events as JSON lines to a writer. Safe for concurrent use.
// Encoding errors are sticky: the first one is kept (see Err) and later
// events are dropped rather than interleaving partial lines.
type JSONL struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONL builds a JSONL tracer writing to w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{enc: json.NewEncoder(w)}
}

// Emit implements Tracer.
func (j *JSONL) Emit(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.err = j.enc.Encode(e)
}

// Err returns the first encoding error, if any.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Collector buffers events in memory — the assertion sink for tests.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Tracer.
func (c *Collector) Emit(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Events returns a copy of the collected events in emission order.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Count returns how many collected events have the given type.
func (c *Collector) Count(t EventType) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.events {
		if e.Type == t {
			n++
		}
	}
	return n
}

// runTracer stamps a run identifier onto every event before forwarding.
type runTracer struct {
	inner Tracer
	run   string
}

// WithRun returns a Tracer that prefixes every event's Run field with run
// (joined by "/" when the event already carries one, so decorators nest:
// the outermost wrapper contributes the leftmost path segment). A nil inner
// tracer returns nil, preserving the "nil means off" contract through
// decoration.
func WithRun(inner Tracer, run string) Tracer {
	if inner == nil {
		return nil
	}
	return &runTracer{inner: inner, run: run}
}

// Emit implements Tracer.
func (r *runTracer) Emit(e Event) {
	if e.Run == "" {
		e.Run = r.run
	} else {
		e.Run = r.run + "/" + e.Run
	}
	r.inner.Emit(e)
}

// Tee fans events out to every non-nil tracer. It returns nil when none
// remain, so Tee(nil, nil) is still the zero-cost disabled state.
func Tee(tracers ...Tracer) Tracer {
	var live []Tracer
	for _, t := range tracers {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return teeTracer(live)
}

type teeTracer []Tracer

// Emit implements Tracer.
func (ts teeTracer) Emit(e Event) {
	for _, t := range ts {
		t.Emit(e)
	}
}
