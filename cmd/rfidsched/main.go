// Command rfidsched computes a reader-activation covering schedule for a
// deployment JSON file (see rfidgen) and prints it slot by slot.
//
// Usage:
//
//	rfidsched -in paper.json -alg alg2
//	rfidsched -in warehouse.json -alg alg1 -v
//	rfidsched -in paper.json -alg alg3 -verify
//	rfidsched -in paper.json -alg alg2 -trace run.jsonl
//	rfidsched -in paper.json -alg alg1 -deadline 50ms -checkpoint run.ckpt
//	rfidsched -in paper.json -alg alg1 -checkpoint run.ckpt -resume
//	rfidsched -in paper.json -alg colorwave -checkpoint run.ckpt -supervise 3
//	rfidsched -in paper.json -alg alg2 -http 127.0.0.1:9190
//
// Algorithms: alg1 (PTAS, needs locations — always available here since the
// file stores them), alg2 (centralized, interference graph only), alg3
// (distributed), ghc, colorwave, random, exact.
//
// -deadline bounds each slot's solver work in wall-clock time (the anytime
// contract: a truncated slot still activates a feasible reader set);
// -slot-polls is its deterministic equivalent for reproducible runs.
// -checkpoint appends a durable record per slot; -resume continues a killed
// run from that file bit-identically; -supervise N additionally restarts the
// run from its last checkpoint up to N times if it crashes mid-flight.
//
// -http serves live telemetry while the run executes: Prometheus metrics at
// /metrics, JSON run progress at /runs, liveness/readiness probes, pprof
// under /debug/pprof/, and the flight recorder's recent events at
// /debug/flight. The flight recorder (-flight N, on by default) retains the
// last N trace events in memory; a crashed -supervise attempt archives them
// to <checkpoint>.flight.attempt<K>.jsonl before restarting, and -flight-dump
// additionally writes them to a file whenever a run ends degraded or
// incomplete. Telemetry is pure observation: a seeded run's schedule is
// bit-identical with or without any of it (DESIGN.md §9, §13).
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"rfidsched/internal/baseline"
	"rfidsched/internal/checkpoint"
	"rfidsched/internal/core"
	"rfidsched/internal/deploy"
	"rfidsched/internal/graph"
	"rfidsched/internal/model"
	"rfidsched/internal/obs"
	"rfidsched/internal/obs/history"
	"rfidsched/internal/randx"
	"rfidsched/internal/verify"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rfidsched", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in         = fs.String("in", "", "deployment JSON file (required)")
		alg        = fs.String("alg", "alg2", "algorithm: alg1, alg2, alg3, ghc, colorwave, random, exact")
		rho        = fs.Float64("rho", 1.25, "growth threshold for alg2/alg3")
		seed       = fs.Uint64("seed", 2011, "seed for randomized algorithms")
		verbose    = fs.Bool("v", false, "print the active reader set of every slot")
		check      = fs.Bool("verify", false, "independently re-verify the schedule against the model")
		trace      = fs.String("trace", "", "write a JSONL slot-level trace to this file")
		workers    = fs.Int("workers", 0, "solver worker goroutines for alg1 (0 = sequential; results are identical at any value)")
		deadline   = fs.Duration("deadline", 0, "per-slot wall-clock budget for alg1/alg2/exact (0 = none; truncated slots still activate a feasible set)")
		slotPolls  = fs.Int("slot-polls", 0, "per-slot deterministic poll budget (reproducible alternative to -deadline; takes precedence)")
		ckptPath   = fs.String("checkpoint", "", "append a durable per-slot checkpoint to this file")
		resume     = fs.Bool("resume", false, "resume a killed run from the -checkpoint file")
		supervise  = fs.Int("supervise", 0, "restart a crashed run from its last checkpoint up to N times (requires -checkpoint)")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = fs.String("memprofile", "", "write a heap profile to this file on exit")
		httpAddr   = fs.String("http", "", "serve live telemetry on this address (/metrics, /runs, /healthz, /readyz, /debug/pprof/, /debug/flight)")
		httpLinger = fs.Duration("http-linger", 0, "keep the telemetry server up this long after the run finishes (for scrapers)")
		flightCap  = fs.Int("flight", obs.DefaultFlightCapacity, "flight-recorder capacity in events (0 disables it)")
		flightDump = fs.String("flight-dump", "", "dump the flight record to this JSONL file when a run ends degraded or incomplete")
		historyIvl = fs.Duration("history", time.Second, "with -http: metric-history sampling interval for /history (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *in == "" {
		fmt.Fprintln(stderr, "rfidsched: -in is required")
		fs.Usage()
		return 2
	}
	if *resume && *ckptPath == "" {
		fmt.Fprintln(stderr, "rfidsched: -resume requires -checkpoint <file>")
		return 2
	}
	if *supervise > 0 && *ckptPath == "" {
		fmt.Fprintln(stderr, "rfidsched: -supervise requires -checkpoint <file>")
		return 2
	}

	stopProf, err := obs.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(stderr, "rfidsched: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(stderr, "rfidsched: %v\n", err)
		}
	}()

	d, err := deploy.LoadFile(*in)
	if err != nil {
		fmt.Fprintf(stderr, "rfidsched: %v\n", err)
		return 1
	}
	sys, err := d.ToSystem()
	if err != nil {
		fmt.Fprintf(stderr, "rfidsched: %v\n", err)
		return 1
	}
	g := graph.FromSystem(sys)

	var tr obs.Tracer
	var traceSink *obs.JSONL
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintf(stderr, "rfidsched: %v\n", err)
			return 1
		}
		defer f.Close()
		traceSink = obs.NewJSONL(f)
		tr = traceSink
	}

	// The flight recorder rides the tracer path: a fixed ring of the most
	// recent slot events, archived on crash by the supervisor, dumped on a
	// degraded/incomplete finish via -flight-dump, and readable live at
	// /debug/flight. Teeing keeps any -trace file complete and untouched.
	var flight *obs.FlightRecorder
	if *flightCap > 0 {
		flight = obs.NewFlightRecorder(*flightCap)
		if *flightDump != "" {
			flight.AutoDump(*flightDump)
		}
		tr = obs.Tee(tr, flight)
	}
	var reg *obs.Registry
	if *httpAddr != "" {
		reg = obs.NewRegistry()
		// /history samples the registry into the embedded ring store and
		// /events streams the live trace with the flight window replayed to
		// each new subscriber — both pure observation, neither touching the
		// run's results.
		var hist http.Handler
		if *historyIvl > 0 {
			store := history.New(reg, history.Options{Interval: *historyIvl})
			stopSampler := store.Start()
			defer stopSampler()
			hist = store.Handler()
		}
		broker := obs.NewSSEBroker(0)
		broker.SetReplay(flight)
		tr = obs.Tee(tr, broker)
		srv, err := obs.Serve(*httpAddr, obs.ServeOptions{
			Registry: reg, Flight: flight, History: hist, Events: broker,
		})
		if err != nil {
			fmt.Fprintf(stderr, "rfidsched: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "rfidsched: telemetry listening on http://%s/\n", srv.Addr)
		// Fold the event stream into the registry too, so /metrics carries
		// the events.* counters (including events.run_completed, which /runs
		// reports) alongside the driver's own gauges and spans.
		tr = obs.Tee(tr, obs.NewMetricsTracer(reg))
		defer func() {
			// Linger so a scraper (or the CI smoke job) can still read the
			// final state of a short run before the process exits.
			if *httpLinger > 0 {
				time.Sleep(*httpLinger)
			}
			srv.Close()
		}()
	}

	// The supervisor restarts a crashed attempt from its last checkpoint,
	// which needs a pristine system and a freshly configured scheduler each
	// time — a half-run attempt has mutated both.
	newSched := func() (model.OneShotScheduler, error) {
		var sched model.OneShotScheduler
		switch *alg {
		case "alg1":
			sched = core.NewPTAS()
		case "alg2":
			sched = core.NewGrowth(g, *rho)
		case "alg3":
			sched = core.NewDistributed(g, *rho)
		case "ghc":
			sched = baseline.GHC{}
		case "colorwave":
			sched = baseline.NewColorwave(g, *seed)
		case "random":
			rng := randx.New(*seed)
			sched = &baseline.Random{Next: rng.Intn}
		case "exact":
			sched = &baseline.Exact{}
		default:
			return nil, fmt.Errorf("unknown algorithm %q", *alg)
		}
		if dd, ok := sched.(*core.Distributed); ok {
			dd.Tracer = tr
		}
		return sched, nil
	}
	if _, err := newSched(); err != nil {
		fmt.Fprintf(stderr, "rfidsched: %v\n", err)
		return 2
	}

	fmt.Fprintf(stdout, "deployment: %d readers, %d tags (%d coverable), interference graph: %d edges\n",
		sys.NumReaders(), sys.NumTags(), sys.CoverableCount(), g.M())

	opts := core.MCSOptions{
		RecordSlots:    true,
		Tracer:         tr,
		Metrics:        reg,
		SolverWorkers:  *workers,
		SlotDeadline:   *deadline,
		SlotPollBudget: *slotPolls,
	}
	sup := supervisor{
		newSys:   func() (*model.System, error) { return d.ToSystem() },
		newSched: newSched,
		opts:     opts,
		ckptPath: *ckptPath,
		resume:   *resume,
		restarts: *supervise,
		stderr:   stderr,
		reg:      reg,
		flight:   flight,
	}
	if *supervise > 0 && flight != nil {
		sup.flightBase = *ckptPath + ".flight"
	}
	res, err := sup.run()
	if err != nil {
		fmt.Fprintf(stderr, "rfidsched: %v\n", err)
		return 1
	}
	if traceSink != nil {
		if err := traceSink.Err(); err != nil {
			fmt.Fprintf(stderr, "rfidsched: trace: %v\n", err)
			return 1
		}
	}
	if *check {
		// The paper's three algorithms must produce feasible slots; the
		// baselines are only held to the physical accounting rules.
		feasible := *alg == "alg1" || *alg == "alg2" || *alg == "alg3" || *alg == "exact"
		rep, err := verify.Schedule(sys, res, verify.Options{RequireFeasible: feasible})
		if err != nil {
			fmt.Fprintf(stderr, "rfidsched: verification FAILED: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "verified:   %d slots replayed, %d tags served, %d feasible slots, %d fallbacks\n",
			rep.Slots, rep.TagsServed, rep.FeasibleSlots, rep.FallbackSlots)
	}
	fmt.Fprintf(stdout, "algorithm:  %s\n", res.Algorithm)
	fmt.Fprintf(stdout, "schedule:   %d slots, %d tags read", res.Size, res.TotalRead)
	if res.Fallbacks > 0 {
		fmt.Fprintf(stdout, " (%d fallback slots)", res.Fallbacks)
	}
	if res.AnytimeSlots > 0 {
		fmt.Fprintf(stdout, " (%d anytime slots)", res.AnytimeSlots)
	}
	if res.Incomplete {
		fmt.Fprintf(stdout, " INCOMPLETE")
	}
	fmt.Fprintln(stdout)
	if *verbose {
		for i, sl := range res.Slots {
			marker := ""
			if sl.Fallback {
				marker = " [fallback]"
			}
			fmt.Fprintf(stdout, "  slot %3d: %3d tags, readers %v%s\n", i, sl.TagsRead, sl.Active, marker)
		}
	}
	return 0
}

// supervisor drives the covering-schedule run with crash recovery: each
// attempt gets a fresh system and scheduler, resumes from the checkpoint
// file when one is available, and a panic mid-run costs one restart instead
// of the whole schedule — the checkpointed prefix is never recomputed.
type supervisor struct {
	newSys   func() (*model.System, error)
	newSched func() (model.OneShotScheduler, error)
	opts     core.MCSOptions
	ckptPath string
	resume   bool // first attempt resumes (the -resume flag)
	restarts int  // max automatic restarts after a crash
	stderr   io.Writer

	reg        *obs.Registry       // telemetry registry (nil without -http)
	flight     *obs.FlightRecorder // ring of recent events (nil when -flight 0)
	flightBase string              // crash-archive prefix; "" disables archiving
}

func (s *supervisor) run() (*core.MCSResult, error) {
	resume := s.resume
	for attempt := 0; ; attempt++ {
		if s.reg != nil {
			s.reg.Gauge("supervise.attempt").Set(float64(attempt))
		}
		res, err := s.attempt(resume)
		if err == nil {
			return res, nil
		}
		// Archive the flight record before the restart overwrites the ring:
		// the last events before the crash are exactly what a post-mortem
		// needs, and each attempt keeps its own file.
		if s.flight != nil && s.flightBase != "" {
			path := fmt.Sprintf("%s.attempt%d.jsonl", s.flightBase, attempt)
			if derr := s.flight.DumpFile(path); derr != nil {
				fmt.Fprintf(s.stderr, "rfidsched: flight record: %v\n", derr)
			} else {
				fmt.Fprintf(s.stderr, "rfidsched: flight record archived to %s\n", path)
			}
		}
		if attempt >= s.restarts {
			return nil, err
		}
		// Every later attempt resumes: the crashed one left a durable
		// prefix behind (at worst a torn final line, which LoadMCS drops).
		resume = true
		fmt.Fprintf(s.stderr, "rfidsched: run failed (%v); restarting from %s (restart %d of %d)\n",
			err, s.ckptPath, attempt+1, s.restarts)
		// Back off briefly so a crash loop with an external cause (disk
		// full, OOM killer) does not spin at full speed.
		time.Sleep(time.Duration(attempt+1) * 100 * time.Millisecond)
	}
}

// attempt executes one supervised try, converting panics into errors so the
// supervisor can restart instead of taking the process down.
func (s *supervisor) attempt(resume bool) (res *core.MCSResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("schedule run panicked: %v", r)
		}
	}()
	sys, err := s.newSys()
	if err != nil {
		return nil, err
	}
	sched, err := s.newSched()
	if err != nil {
		return nil, err
	}
	opts := s.opts

	// Resume order matters: load the full surviving state into memory
	// FIRST, then truncate the same path for the new stream — ResumeMCS
	// re-records the replayed history, so the file is complete again after
	// the first appended record.
	var state *checkpoint.MCSState
	if resume {
		state, err = checkpoint.LoadMCS(s.ckptPath)
		if err != nil {
			return nil, fmt.Errorf("resume: %w", err)
		}
	}
	if s.ckptPath != "" {
		w, err := checkpoint.Create(s.ckptPath)
		if err != nil {
			return nil, err
		}
		defer w.Close()
		opts.Checkpoint = w
	}
	if state != nil {
		return core.ResumeMCS(sys, sched, opts, state)
	}
	return core.RunMCS(sys, sched, opts)
}
