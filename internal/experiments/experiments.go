// Package experiments defines and runs the paper's evaluation (Section VI):
// one definition per figure, multi-trial, aggregated with confidence
// intervals, and rendered as the same series the figures plot.
//
// Setting (paper defaults): 50 readers and 1200 tags uniformly random in a
// 100x100 square; interference radii ~ Poisson(lambdaR), interrogation
// radii ~ Poisson(lambdar) with R_i >= r_i enforced. Five algorithms are
// compared — Alg1 (PTAS), Alg2 (centralized growth), Alg3 (distributed),
// Colorwave (CA) and Greedy Hill-Climbing (GHC) — on two metrics:
//
//	Figures 6/7: size of the covering schedule (time slots to read every
//	             coverable tag), sweeping lambdaR resp. lambdar.
//	Figures 8/9: total well-covered tags in a single time slot, sweeping
//	             lambdar resp. lambdaR.
//
// Trials run in parallel (one goroutine per deployment, paired across
// algorithms so every algorithm sees the same random instances).
package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"rfidsched/internal/baseline"
	"rfidsched/internal/core"
	"rfidsched/internal/deploy"
	"rfidsched/internal/graph"
	"rfidsched/internal/model"
	"rfidsched/internal/obs"
	"rfidsched/internal/stats"
)

// AlgNames lists the algorithms of the paper's evaluation in plot order.
var AlgNames = []string{"Alg1-PTAS", "Alg2-Growth", "Alg3-Distributed", "Colorwave", "GHC"}

// Config parameterizes a figure run.
type Config struct {
	Trials     int     // deployments per sweep point (default 10)
	Seed       uint64  // base seed; trial seeds derive from it
	NumReaders int     // default 50
	NumTags    int     // default 1200
	Side       float64 // default 100
	Rho        float64 // growth threshold for Alg2/Alg3 (default 1.25)
	Workers    int     // parallel trial workers (default NumCPU)

	// SolverWorkers routes a worker count into each trial's schedulers that
	// expose SetWorkers; only the PTAS pools its work (the MWFS searches of
	// Algs. 2 and 3 are sequential). Schedules are bit-identical at every
	// value. Default: 1 (sequential solvers) when
	// Workers > 1 — trial-level parallelism already saturates the cores,
	// and nesting pools would oversubscribe — else NumCPU, so single-trial
	// runs get the full machine at the solver level.
	SolverWorkers int

	// Algorithms filters which algorithms run (nil = all five).
	Algorithms []string

	// FixedLambdaR / FixedLambdaSmallR override the fixed parameter of the
	// sweep (0 = the figure's default).
	FixedLambdaR      float64
	FixedLambdaSmallR float64

	// Sweep overrides the swept values (nil = the figure's default).
	Sweep []float64

	// Tracer, when non-nil, receives slot-level trace events from every
	// run the experiment performs. Trials run in parallel, so the sink
	// must be concurrency-safe (obs.JSONL and obs.Collector are); each
	// run's events are stamped with a "figure/x/trial/algorithm" run id
	// via obs.WithRun so a single trace file stays attributable.
	Tracer obs.Tracer

	// Metrics, when non-nil, receives live driver telemetry from every run
	// (progress gauges, per-phase span histograms; see core.MCSOptions
	// .Metrics) — the registry the `rfidsim -http` telemetry server scrapes.
	// The registry is safe for the harness's parallel trials; counters and
	// histograms aggregate across them, while the progress gauges are
	// last-write-wins and so reflect *some* in-flight run at each instant.
	Metrics *obs.Registry

	// Checkpoint, when non-nil, makes the sweep durable at cell
	// granularity: every completed (figure, x, trial) cell is appended to
	// the stream, and cells already recorded there are replayed into the
	// aggregation instead of re-executed (see OpenSweepCheckpoint). One
	// checkpoint may span several RunFigure/RunAblation calls.
	Checkpoint *SweepCheckpoint

	// SlotDeadline / SlotPollBudget bound each slot's (or one-shot call's)
	// solver work, exactly as in core.MCSOptions: SlotDeadline in
	// wall-clock time, SlotPollBudget in deterministic cooperative polls
	// (precedence when both are set). Truncated calls still yield feasible
	// sets — the anytime contract — so long sweeps trade tail latency for
	// slightly longer schedules instead of hanging on hard instances.
	SlotDeadline   time.Duration
	SlotPollBudget int
}

func (c Config) withDefaults() Config {
	if c.Trials <= 0 {
		c.Trials = 10
	}
	if c.NumReaders <= 0 {
		c.NumReaders = 50
	}
	if c.NumTags <= 0 {
		c.NumTags = 1200
	}
	if c.Side <= 0 {
		c.Side = 100
	}
	if c.Rho <= 1 {
		c.Rho = 1.25
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.SolverWorkers <= 0 {
		if c.Workers > 1 {
			c.SolverWorkers = 1
		} else {
			c.SolverWorkers = runtime.NumCPU()
		}
	}
	if c.Algorithms == nil {
		c.Algorithms = AlgNames
	}
	return c
}

// Point is one aggregated sweep point of one algorithm's series.
type Point struct {
	X    float64
	Mean float64
	CI95 float64
	N    int
}

// Series is one algorithm's curve.
type Series struct {
	Algorithm string
	Points    []Point
}

// FigureResult is a reproduced figure.
type FigureResult struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Figure descriptors.
type figureDef struct {
	id, title, xlabel, ylabel string
	metric                    string // "mcs" or "oneshot"
	sweep                     []float64
	sweepIsLambdaR            bool
	fixedLambdaR              float64
	fixedLambdaSmallR         float64
}

var figures = map[string]figureDef{
	"fig6": {
		id: "fig6", title: "Figure 6: covering schedule size vs lambda_R (lambda_r fixed)",
		xlabel: "lambda_R", ylabel: "schedule size (slots)",
		metric: "mcs", sweep: []float64{6, 8, 10, 12, 14, 16},
		sweepIsLambdaR: true, fixedLambdaSmallR: 5,
	},
	"fig7": {
		id: "fig7", title: "Figure 7: covering schedule size vs lambda_r (lambda_R fixed)",
		xlabel: "lambda_r", ylabel: "schedule size (slots)",
		metric: "mcs", sweep: []float64{3, 4, 5, 6, 7, 8},
		sweepIsLambdaR: false, fixedLambdaR: 12,
	},
	"fig8": {
		id: "fig8", title: "Figure 8: one-shot well-covered tags vs lambda_r (lambda_R fixed)",
		xlabel: "lambda_r", ylabel: "well-covered tags in one slot",
		metric: "oneshot", sweep: []float64{3, 4, 5, 6, 7, 8},
		sweepIsLambdaR: false, fixedLambdaR: 12,
	},
	"fig9": {
		id: "fig9", title: "Figure 9: one-shot well-covered tags vs lambda_R (lambda_r fixed)",
		xlabel: "lambda_R", ylabel: "well-covered tags in one slot",
		metric: "oneshot", sweep: []float64{6, 8, 10, 12, 14, 16},
		sweepIsLambdaR: true, fixedLambdaSmallR: 5,
	},
}

// FigureIDs returns the known figure identifiers in order.
func FigureIDs() []string { return []string{"fig6", "fig7", "fig8", "fig9"} }

// RunFigure reproduces one of the paper's figures.
func RunFigure(id string, cfg Config) (*FigureResult, error) {
	def, ok := figures[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown figure %q (have %v)", id, FigureIDs())
	}
	cfg = cfg.withDefaults()
	sweep := def.sweep
	if cfg.Sweep != nil {
		sweep = cfg.Sweep
	}
	fixedR := def.fixedLambdaR
	if cfg.FixedLambdaR > 0 {
		fixedR = cfg.FixedLambdaR
	}
	fixedr := def.fixedLambdaSmallR
	if cfg.FixedLambdaSmallR > 0 {
		fixedr = cfg.FixedLambdaSmallR
	}

	type task struct {
		x     float64
		trial int
	}

	var tasks []task
	for _, x := range sweep {
		for tr := 0; tr < cfg.Trials; tr++ {
			tasks = append(tasks, task{x: x, trial: tr})
		}
	}

	samplesCh := make(chan []sample, len(tasks))
	taskCh := make(chan task)
	errCh := make(chan error, len(tasks))
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tk := range taskCh {
				if cfg.Checkpoint != nil {
					if vals, ok := cfg.Checkpoint.lookup(def.id, tk.x, tk.trial, cfg.Algorithms); ok {
						ss := make([]sample, 0, len(cfg.Algorithms))
						for _, alg := range cfg.Algorithms {
							ss = append(ss, sample{x: tk.x, alg: alg, v: vals[alg]})
						}
						samplesCh <- ss
						continue
					}
				}
				ss, err := runTrial(def, cfg, tk.x, tk.trial, fixedR, fixedr)
				if err != nil {
					errCh <- err
					continue
				}
				if cfg.Checkpoint != nil {
					vals := make(map[string]float64, len(ss))
					for _, s := range ss {
						vals[s.alg] = s.v
					}
					if err := cfg.Checkpoint.record(def.id, tk.x, tk.trial, vals); err != nil {
						errCh <- err
						continue
					}
				}
				samplesCh <- ss
			}
		}()
	}
	for _, tk := range tasks {
		taskCh <- tk
	}
	close(taskCh)
	wg.Wait()
	close(samplesCh)
	close(errCh)
	// Drain ALL trial errors before aggregating: reporting only the first
	// one used to leave the rest unread and let a partially-populated
	// figure through on later calls' buffered channels. A single failed
	// trial invalidates the paired design, so the whole figure fails.
	var firstErr error
	failed := 0
	for err := range errCh {
		failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, fmt.Errorf("experiments: %d of %d trials failed, first error: %w", failed, len(tasks), firstErr)
	}

	// Aggregate.
	accs := map[string]map[float64]*stats.Acc{}
	for _, alg := range cfg.Algorithms {
		accs[alg] = map[float64]*stats.Acc{}
	}
	for ss := range samplesCh {
		for _, s := range ss {
			m := accs[s.alg]
			if m == nil {
				continue
			}
			if m[s.x] == nil {
				m[s.x] = &stats.Acc{}
			}
			m[s.x].Add(s.v)
		}
	}

	res := &FigureResult{ID: def.id, Title: def.title, XLabel: def.xlabel, YLabel: def.ylabel}
	for _, alg := range cfg.Algorithms {
		ser := Series{Algorithm: alg}
		xs := make([]float64, 0, len(accs[alg]))
		for x := range accs[alg] {
			xs = append(xs, x)
		}
		slices.Sort(xs)
		for _, x := range xs {
			a := accs[alg][x]
			ser.Points = append(ser.Points, Point{X: x, Mean: a.Mean(), CI95: a.CI95(), N: a.N()})
		}
		res.Series = append(res.Series, ser)
	}
	return res, nil
}

// sample is one (sweep point, algorithm, measurement) triple.
type sample struct {
	x   float64
	alg string
	v   float64
}

// runTrial generates one deployment and measures every requested algorithm
// on it (paired design).
func runTrial(def figureDef, cfg Config, x float64, trial int, fixedR, fixedr float64) (out []sample, err error) {
	lambdaR, lambdar := fixedR, fixedr
	if def.sweepIsLambdaR {
		lambdaR = x
	} else {
		lambdar = x
	}
	if lambdar > lambdaR {
		lambdar = lambdaR // keep the radii rule satisfiable in skewed sweeps
	}
	seed := cfg.Seed*1_000_003 + uint64(trial)*7919 + uint64(x*131)
	dcfg := deploy.Config{
		Seed: seed, NumReaders: cfg.NumReaders, NumTags: cfg.NumTags,
		Side: cfg.Side, LambdaR: lambdaR, LambdaSmallR: lambdar,
	}
	base, err := deploy.Generate(dcfg)
	if err != nil {
		return nil, err
	}
	g := graph.FromSystem(base)

	for _, alg := range cfg.Algorithms {
		sched, err := makeScheduler(alg, g, cfg.Rho, seed)
		if err != nil {
			return nil, err
		}
		if sw, ok := sched.(interface{ SetWorkers(int) }); ok {
			sw.SetWorkers(cfg.SolverWorkers)
		}
		var tr obs.Tracer
		if cfg.Tracer != nil {
			tr = obs.WithRun(cfg.Tracer, fmt.Sprintf("%s/x=%v/trial%d/%s", def.id, x, trial, alg))
			if d, ok := sched.(*core.Distributed); ok {
				d.Tracer = tr
			}
		}
		sys := base.Clone()
		var v float64
		switch def.metric {
		case "mcs":
			res, err := core.RunMCS(sys, sched, core.MCSOptions{
				Tracer:         tr,
				Metrics:        cfg.Metrics,
				SlotDeadline:   cfg.SlotDeadline,
				SlotPollBudget: cfg.SlotPollBudget,
			})
			if err != nil {
				return nil, err
			}
			v = float64(res.Size)
		case "oneshot":
			if ds, ok := sched.(core.DeadlineSetter); ok {
				if cfg.SlotPollBudget > 0 {
					ds.SetDeadline(core.NewPollBudget(cfg.SlotPollBudget))
				} else if cfg.SlotDeadline > 0 {
					ds.SetDeadline(core.NewDeadline(cfg.SlotDeadline))
				}
			}
			X, err := sched.OneShot(sys)
			if err != nil {
				return nil, err
			}
			v = float64(sys.Weight(X))
		default:
			return nil, fmt.Errorf("experiments: unknown metric %q", def.metric)
		}
		out = append(out, sample{x: x, alg: alg, v: v})
	}
	return out, nil
}

func makeScheduler(name string, g *graph.Graph, rho float64, seed uint64) (model.OneShotScheduler, error) {
	switch name {
	case "Alg1-PTAS":
		return core.NewPTAS(), nil
	case "Alg2-Growth":
		return core.NewGrowth(g, rho), nil
	case "Alg3-Distributed":
		return core.NewDistributed(g, rho), nil
	case "Colorwave":
		return baseline.NewColorwave(g, seed), nil
	case "GHC":
		return baseline.GHC{}, nil
	case "Exact":
		return &baseline.Exact{}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown algorithm %q", name)
	}
}
