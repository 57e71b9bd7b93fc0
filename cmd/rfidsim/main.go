// Command rfidsim reproduces the paper's evaluation figures and the
// repository's ablation studies.
//
// Usage:
//
//	rfidsim -fig 6 -trials 10                 # Figure 6, ASCII table
//	rfidsim -fig all -trials 10 -format md    # all figures as Markdown
//	rfidsim -fig 8 -format chart              # ASCII line chart
//	rfidsim -fig abl-rho                      # one ablation
//	rfidsim -fig ablations -format csv        # every ablation, CSV
//	rfidsim -fig chaos -trace run.jsonl       # record a slot-level trace
//	rfidsim -fig trace-report -trace run.jsonl  # summarize a recorded trace
//	rfidsim -fig 6 -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	rfidsim -fig all -http 127.0.0.1:9191       # watch the sweep live
//
// -http serves the live metrics registry (solver-pool counters, MCS
// progress gauges, phase-span histograms) at /metrics with JSON progress at
// /runs, pprof under /debug/pprof/, and — when the flight recorder is on —
// the most recent trace events at /debug/flight. -fig trace-report also
// accepts flight-recorder dumps, which are mid-run windows of a trace.
//
// Figures: 6/7 sweep the covering-schedule size against lambda_R / lambda_r;
// 8/9 sweep the one-shot well-covered tag count. Defaults follow Section VI
// of the paper: 50 readers, 1200 tags, 100x100 region.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"rfidsched/internal/experiments"
	"rfidsched/internal/obs"
	"rfidsched/internal/obs/history"
	"rfidsched/internal/parsearch"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rfidsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig        = fs.String("fig", "all", `figure: 6-9, "all", an ablation id (abl-rho, abl-survey, abl-channels, abl-mobility, abl-chaos), "ablations", or "trace-report"`)
		trials     = fs.Int("trials", 10, "random deployments per sweep point")
		seed       = fs.Uint64("seed", 2011, "base RNG seed")
		readers    = fs.Int("readers", 50, "number of readers")
		tags       = fs.Int("tags", 1200, "number of tags")
		side       = fs.Float64("side", 100, "deployment square side length")
		rho        = fs.Float64("rho", 1.25, "growth threshold for Algorithms 2/3")
		workers    = fs.Int("workers", 0, "parallel trial workers (0 = NumCPU)")
		solverW    = fs.Int("solver-workers", 0, "solver worker goroutines inside each trial (0 = 1 when trial workers > 1, else NumCPU; results are identical at any value)")
		format     = fs.String("format", "ascii", "output format: ascii, md, csv, chart")
		out        = fs.String("out", "", "output file (default stdout)")
		algs       = fs.String("algs", "", "comma-separated algorithm subset (default all five)")
		trace      = fs.String("trace", "", "JSONL slot-trace file: written by figure/ablation runs, read by -fig trace-report")
		slotDl     = fs.Duration("slot-deadline", 0, "per-slot wall-clock solver budget (0 = none; truncated slots stay feasible)")
		slotPolls  = fs.Int("slot-polls", 0, "per-slot deterministic poll budget (reproducible alternative to -slot-deadline)")
		ckptPath   = fs.String("checkpoint", "", "record completed sweep cells to this file for crash recovery")
		resume     = fs.Bool("resume", false, "skip sweep cells already recorded in the -checkpoint file")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = fs.String("memprofile", "", "write a heap profile to this file on exit")
		httpAddr   = fs.String("http", "", "serve live telemetry on this address (/metrics, /runs, /healthz, /readyz, /debug/pprof/, /debug/flight)")
		httpLinger = fs.Duration("http-linger", 0, "keep the telemetry server up this long after the sweep finishes (for scrapers)")
		flightCap  = fs.Int("flight", 0, "flight-recorder capacity in events (0 = on only with -http, at the default capacity)")
		historyIvl = fs.Duration("history", time.Second, "with -http: metric-history sampling interval for /history (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	stopProf, err := obs.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(stderr, "rfidsim: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(stderr, "rfidsim: %v\n", err)
		}
	}()

	cfg := experiments.Config{
		Trials: *trials, Seed: *seed, NumReaders: *readers, NumTags: *tags,
		Side: *side, Rho: *rho, Workers: *workers, SolverWorkers: *solverW,
		SlotDeadline: *slotDl, SlotPollBudget: *slotPolls,
	}
	if *algs != "" {
		cfg.Algorithms = strings.Split(*algs, ",")
	}

	if *fig == "trace-report" {
		return traceReport(*trace, *out, stdout, stderr)
	}
	if *resume && *ckptPath == "" {
		fmt.Fprintln(stderr, "rfidsim: -resume requires -checkpoint <file>")
		return 2
	}
	if *ckptPath != "" {
		ckpt, err := experiments.OpenSweepCheckpoint(*ckptPath, cfg, *resume)
		if err != nil {
			fmt.Fprintf(stderr, "rfidsim: %v\n", err)
			return 1
		}
		defer func() {
			if err := ckpt.Close(); err != nil {
				fmt.Fprintf(stderr, "rfidsim: checkpoint: %v\n", err)
			}
		}()
		if n := ckpt.Restored(); n > 0 {
			fmt.Fprintf(stderr, "rfidsim: resuming — %d completed sweep cells restored from %s\n", n, *ckptPath)
		}
		cfg.Checkpoint = ckpt
	}

	// Log the effective worker split (trial-level × solver-level) and route
	// solver-pool telemetry into a metrics registry so trace reports show
	// where parallel search time went.
	logger := obs.NewLogger(stderr, slog.LevelInfo)
	trialWorkers := *workers
	if trialWorkers <= 0 {
		trialWorkers = runtime.NumCPU()
	}
	solverWorkers := *solverW
	if solverWorkers <= 0 {
		if trialWorkers > 1 {
			solverWorkers = 1
		} else {
			solverWorkers = runtime.NumCPU()
		}
	}
	logger.Info("worker configuration",
		"trial_workers", trialWorkers,
		"solver_workers", solverWorkers,
		"num_cpu", runtime.NumCPU())
	reg := obs.NewRegistry()
	parsearch.EnableMetrics(reg)
	defer parsearch.EnableMetrics(nil)
	defer func() {
		snap := reg.Snapshot()
		tasks := snap.Counters["parsearch.pool.tasks"]
		if tasks == 0 {
			return
		}
		logger.Info("solver pool", "tasks", tasks)
	}()

	var traceSink *obs.JSONL
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintf(stderr, "rfidsim: %v\n", err)
			return 1
		}
		defer f.Close()
		traceSink = obs.NewJSONL(f)
		cfg.Tracer = traceSink
	}

	// Live telemetry: the sweep shares one registry across parallel trials
	// (counters and span histograms aggregate; progress gauges are
	// last-write-wins), and the flight recorder keeps a ring of the latest
	// slot events for /debug/flight without growing with the sweep.
	cfg.Metrics = reg
	flightEvents := *flightCap
	if flightEvents == 0 && *httpAddr != "" {
		flightEvents = obs.DefaultFlightCapacity
	}
	var flight *obs.FlightRecorder
	if flightEvents > 0 {
		flight = obs.NewFlightRecorder(flightEvents)
		cfg.Tracer = obs.Tee(cfg.Tracer, flight)
	}
	if *httpAddr != "" {
		// /history samples the shared registry into the embedded ring store
		// and /events streams the live trace with the flight window replayed
		// to late subscribers — both pure observation.
		var hist http.Handler
		if *historyIvl > 0 {
			store := history.New(reg, history.Options{Interval: *historyIvl})
			stopSampler := store.Start()
			defer stopSampler()
			hist = store.Handler()
		}
		broker := obs.NewSSEBroker(0)
		broker.SetReplay(flight)
		cfg.Tracer = obs.Tee(cfg.Tracer, broker)
		srv, err := obs.Serve(*httpAddr, obs.ServeOptions{
			Registry: reg, Flight: flight, History: hist, Events: broker,
		})
		if err != nil {
			fmt.Fprintf(stderr, "rfidsim: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "rfidsim: telemetry listening on http://%s/\n", srv.Addr)
		// Fold the event stream into the registry so /metrics carries the
		// events.* counters (events.run_completed feeds /runs) on top of the
		// solver-pool and driver metrics.
		cfg.Tracer = obs.Tee(cfg.Tracer, obs.NewMetricsTracer(reg))
		defer func() {
			if *httpLinger > 0 {
				time.Sleep(*httpLinger)
			}
			srv.Close()
		}()
	}

	var ids []string
	ablation := false
	switch *fig {
	case "all":
		ids = experiments.FigureIDs()
	case "6", "7", "8", "9":
		ids = []string{"fig" + *fig}
	case "fig6", "fig7", "fig8", "fig9":
		ids = []string{*fig}
	case "ablations":
		ids = experiments.AblationIDs()
		ablation = true
	case "chaos":
		// Shorthand for the fault-injection grid.
		ids = []string{"abl-chaos"}
		ablation = true
	default:
		for _, id := range experiments.AblationIDs() {
			if *fig == id {
				ids = []string{id}
				ablation = true
			}
		}
		if ids == nil {
			fmt.Fprintf(stderr, "rfidsim: unknown figure %q (figures: 6-9, all; ablations: %v)\n",
				*fig, experiments.AblationIDs())
			return 2
		}
	}

	var w io.Writer = stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "rfidsim: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}

	for i, id := range ids {
		var res *experiments.FigureResult
		var err error
		if ablation {
			res, err = experiments.RunAblation(id, cfg)
		} else {
			res, err = experiments.RunFigure(id, cfg)
		}
		if err != nil {
			fmt.Fprintf(stderr, "rfidsim: %s: %v\n", id, err)
			return 1
		}
		if i > 0 && *format != "csv" {
			fmt.Fprintln(w)
		}
		var werr error
		switch *format {
		case "ascii":
			werr = res.WriteASCII(w)
		case "md", "markdown":
			werr = res.WriteMarkdown(w)
		case "csv":
			werr = res.WriteCSV(w)
		case "chart":
			werr = res.WriteChart(w)
		default:
			fmt.Fprintf(stderr, "rfidsim: unknown format %q\n", *format)
			return 2
		}
		if werr != nil {
			fmt.Fprintf(stderr, "rfidsim: writing %s: %v\n", id, werr)
			return 1
		}
	}
	if traceSink != nil {
		if err := traceSink.Err(); err != nil {
			fmt.Fprintf(stderr, "rfidsim: trace: %v\n", err)
			return 1
		}
	}
	return 0
}

// traceReport summarizes a JSONL trace recorded by an earlier -trace run:
// event counts by type, failure and drop causes, a per-run table, and (for
// single-run traces) the per-slot detail.
func traceReport(trace, out string, stdout, stderr io.Writer) int {
	if trace == "" {
		fmt.Fprintln(stderr, "rfidsim: -fig trace-report requires -trace <file>")
		return 2
	}
	f, err := os.Open(trace)
	if err != nil {
		fmt.Fprintf(stderr, "rfidsim: %v\n", err)
		return 1
	}
	defer f.Close()
	sum, err := obs.ReadSummary(f)
	if err != nil {
		fmt.Fprintf(stderr, "rfidsim: reading trace: %v\n", err)
		return 1
	}
	var w io.Writer = stdout
	if out != "" {
		of, err := os.Create(out)
		if err != nil {
			fmt.Fprintf(stderr, "rfidsim: %v\n", err)
			return 1
		}
		defer of.Close()
		w = of
	}
	if err := sum.Write(w); err != nil {
		fmt.Fprintf(stderr, "rfidsim: %v\n", err)
		return 1
	}
	return 0
}
