// Command microbench is the micro-benchmark and CI regression gate for the
// code paths the paper's results depend on. One run measures four sections
// and writes one report (BENCH_micro.json):
//
//   - weight: brute force versus the compiled w(X) kernel of Definition 3
//     for a marginal-weight probe, the branch-and-bound mwfs.Solve and a
//     full greedy-MCS schedule with GHC, at three scales;
//   - core: the frozen pre-CSR constructors versus NewSystem and
//     NewSystem+WarmAdjacency, a fresh Clone versus the pooled cycle, and
//     the steady-state allocations of Weight, the kernel and the pool;
//   - parallel: sequential versus pooled wall clock of the three solvers on
//     internal/parsearch (mwfs.Solve, Alg. 1's PTAS DP and ExactMCS) at
//     min(4, NumCPU) workers;
//   - obs: the MCS driver's wall time per slot with no tracer and with each
//     observability sink, sampled round-robin, plus the /metrics render and
//     the /history sampler's per-tick cost.
//
// Every section asserts in-run that its fast path agrees with its reference
// (kernel vs brute marginals and solve weight, lazy vs brute GHC slots, CSR
// vs reference coverage, sequential vs parallel PTAS set and ExactMCS), so a
// divergence fails the run. The gate table below is enforced on every run.
// Timing ratios on one shared core gate noise, not code, so gates that need
// two CPUs print skip below that, and -o refuses to archive there: a
// parallel baseline from a 1-CPU host measures nothing.
//
// Usage:
//
//	microbench -o BENCH_micro.json   # archive (needs >= 2 CPUs)
//	microbench > fresh.json          # gate only; the report goes to stdout
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"rfidsched/internal/baseline"
	"rfidsched/internal/core"
	"rfidsched/internal/deploy"
	"rfidsched/internal/fault"
	"rfidsched/internal/graph"
	"rfidsched/internal/model"
	"rfidsched/internal/mwfs"
	"rfidsched/internal/obs"
	"rfidsched/internal/obs/history"
)

// scale is a deployment size; it names every metric measured at it.
type scale struct{ readers, tags int }

func (s scale) String() string { return fmt.Sprintf("%dx%d", s.readers, s.tags) }

// suite fixes what one run measures and which gates it enforces.
type suite struct {
	seed uint64

	weight      []scale // the last one is gated
	weightIters int
	solveNodes  int // node cap, so brute and kernel expand the same tree

	core      scale
	coreIters int

	mwfs, ptas    scale
	mwfsNodes     int
	parallelIters int

	obs      scale
	obsIters int

	gates []gate
}

// gate bounds one metric. A gate that needs two CPUs is skipped below that.
type gate struct {
	metric   string
	limit    float64
	max      bool // the metric must stay at or below limit; otherwise at or above
	multiCPU bool
}

// parentFloor is a ratio gate as the retired per-command -check applied it:
// the committed, margin-shaved gate of its BENCH file times (1 − the 0.15
// tolerance). It multiplies at run time, as that check did, so the threshold
// is the same float64. The committed values are constants here, so
// re-archiving moves no gate.
func parentFloor(committed float64) float64 { return committed * (1 - 0.15) }

var paperSuite = suite{
	seed:   2011,
	weight: []scale{{20, 400}, {60, 1200}, {120, 2400}}, weightIters: 10, solveNodes: 20000,
	core: scale{120, 2400}, coreIters: 1000,
	mwfs: scale{120, 2400}, ptas: scale{50, 1200}, mwfsNodes: 300000, parallelIters: 5,
	obs: scale{40, 800}, obsIters: 50,
	gates: []gate{
		// BENCH_weight.json
		{metric: "weight.marginal_speedup@120x2400", limit: parentFloor(62.91162191790356)},
		{metric: "weight.solve_speedup@120x2400", limit: parentFloor(48.58522684879616)},
		{metric: "weight.mcs_speedup@120x2400", limit: parentFloor(62.44926921469012)},
		// BENCH_core.json
		{metric: "core.newsystem_speedup@120x2400", limit: parentFloor(2.4447883304265106), multiCPU: true},
		{metric: "core.construct_speedup@120x2400", limit: parentFloor(2.0583983846223264), multiCPU: true},
		{metric: "core.clone_speedup@120x2400", limit: parentFloor(2.058263000272257), multiCPU: true},
		// Zero-alloc steady state is machine-independent. sync.Pool
		// bookkeeping may allocate a per-P slot container, so the pooled
		// clone cycle gets a small constant instead of 0.
		{metric: "core.weight_allocs@120x2400", max: true},
		{metric: "core.marginal_allocs@120x2400", max: true},
		{metric: "core.add_remove_allocs@120x2400", max: true},
		{metric: "core.pooled_clone_allocs@120x2400", limit: 2, max: true},
		// A fixed per-worker efficiency floor: at 4 workers, 2x wall clock.
		{metric: "parallel.mwfs_parallel_efficiency@120x2400", limit: 0.5, multiCPU: true},
		// The /history sampler measures about 3µs a tick; 1ms catches only
		// real regressions, not runner noise.
		{metric: "obs.history_sample_ns@40x800", limit: 1e6, max: true},
	},
}

// report is the archived output: every measurement in one flat map keyed
// "section.name@scale", plus the obs overheads too small to tell from noise.
type report struct {
	Seed       uint64             `json:"seed"`
	NumCPU     int                `json:"num_cpu"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Metrics    map[string]float64 `json:"metrics"`
	Unresolved []string           `json:"unresolved"`
}

// metrics records one section's numbers at one scale.
type metrics map[string]float64

func (m metrics) at(section string, sc scale) func(name string, v float64) {
	return func(name string, v float64) { m[section+"."+name+"@"+sc.String()] = v }
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, paperSuite, runtime.NumCPU()))
}

func run(args []string, stdout, stderr io.Writer, s suite, numCPU int) int {
	fs := flag.NewFlagSet("microbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "write the report JSON here (default stdout); needs >= 2 CPUs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *out != "" && numCPU < 2 {
		fmt.Fprintf(stderr, "microbench: refusing to archive from %d CPU: no parallel speedup is measurable here\n", numCPU)
		return 1
	}

	rep := report{Seed: s.seed, NumCPU: numCPU, GOMAXPROCS: runtime.GOMAXPROCS(0), Metrics: metrics{}, Unresolved: []string{}}
	workers := min(4, numCPU)
	sections := []struct {
		name  string
		iters int
		run   func() error
	}{
		{"weight", s.weightIters, func() error { return benchWeight(s, rep.Metrics) }},
		{"core", s.coreIters, func() error { return benchCore(s, rep.Metrics) }},
		{"parallel", s.parallelIters, func() error { return benchParallel(s, workers, rep.Metrics) }},
		{"obs", s.obsIters, func() error {
			unresolved, err := benchObs(s, rep.Metrics)
			rep.Unresolved = append(rep.Unresolved, unresolved...)
			return err
		}},
	}
	for _, sec := range sections {
		rep.Metrics[sec.name+".iters"] = float64(sec.iters)
		// Each section starts from a collected heap, so that the garbage of
		// the one before does not cost it background GC work.
		runtime.GC()
		start := time.Now()
		if err := sec.run(); err != nil {
			fmt.Fprintf(stderr, "microbench: %s: %v\n", sec.name, err)
			return 1
		}
		fmt.Fprintf(stderr, "microbench: %s section done in %.1fs\n", sec.name, time.Since(start).Seconds())
	}

	if err := writeReport(rep, *out, stdout); err != nil {
		fmt.Fprintf(stderr, "microbench: %v\n", err)
		return 1
	}
	if failed := checkGates(s.gates, rep.Metrics, numCPU, stderr); failed > 0 {
		fmt.Fprintf(stderr, "microbench: %d gate(s) failed\n", failed)
		return 1
	}
	return 0
}

// checkGates prints one line per gate and returns how many failed. A gated
// metric missing from the run fails: a dropped measurement must not pass
// vacuously.
func checkGates(gates []gate, m map[string]float64, numCPU int, w io.Writer) int {
	failed := 0
	for _, g := range gates {
		op := ">="
		if g.max {
			op = "<="
		}
		got, ok := m[g.metric]
		status := "ok"
		switch {
		case g.multiCPU && numCPU < 2:
			status = "skip"
		case !ok:
			status = "FAIL"
			got = math.NaN()
		case g.max && got > g.limit, !g.max && got < g.limit:
			status = "FAIL"
		}
		if status == "FAIL" {
			failed++
		}
		fmt.Fprintf(w, "microbench: %-4s %-44s %12.4g %s %.4g\n", status, g.metric, got, op, g.limit)
	}
	return failed
}

func writeReport(rep report, out string, stdout io.Writer) error {
	if out == "" {
		return encode(stdout, rep)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := encode(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func encode(w io.Writer, rep report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// deployment is the paper's uniform deployment at one scale.
func deployment(seed uint64, sc scale) (*model.System, error) {
	return deploy.Generate(deploy.Config{
		Seed: seed, NumReaders: sc.readers, NumTags: sc.tags,
		Side: 100, LambdaR: 12, LambdaSmallR: 5,
	})
}

// feasibleProbeSet is a deterministic feasible activation set, greedy by
// index.
func feasibleProbeSet(sys *model.System) []int {
	var X []int
	for v := 0; v < sys.NumReaders(); v++ {
		if !slices.ContainsFunc(X, func(u int) bool { return !sys.Independent(u, v) }) {
			X = append(X, v)
		}
	}
	return X
}

// timeOp returns ns per op, best of iters timed windows of inner ops. Best-of
// defends against scheduler noise on shared runners; one untimed warm-up
// absorbs cold caches.
func timeOp(iters, inner int, f func()) float64 {
	f()
	best := time.Duration(math.MaxInt64)
	for i := 0; i < iters; i++ {
		start := time.Now()
		for j := 0; j < inner; j++ {
			f()
		}
		best = min(best, time.Since(start))
	}
	return float64(best.Nanoseconds()) / float64(inner)
}

// benchWeight times brute force against the compiled kernel. Only the
// largest scale is gated: small instances finish in microseconds, where
// fixed setup costs dominate the ratio.
func benchWeight(s suite, m metrics) error {
	for _, sc := range s.weight {
		if err := benchWeightScale(s, sc, m.at("weight", sc)); err != nil {
			return fmt.Errorf("%s: %w", sc, err)
		}
	}
	return nil
}

func benchWeightScale(s suite, sc scale, put func(string, float64)) error {
	sys, err := deployment(s.seed, sc)
	if err != nil {
		return err
	}
	iters := s.weightIters
	X := feasibleProbeSet(sys)
	put("weight_ns", timeOp(iters, 200, func() { sys.Weight(X) }))

	// Marginal probes: every reader against X. The kernel is compiled over
	// X as context and every reader as a candidate, each probed alone on
	// top of X.
	base := sys.Weight(X)
	bruteNs := timeOp(iters, 1, func() {
		for v := 0; v < sc.readers; v++ {
			sys.MarginalWeightFrom(base, X, v)
		}
	}) / float64(sc.readers)
	all := make([]int, sc.readers)
	for i := range all {
		all[i] = i
	}
	k := model.CompileLocal(sys, X, all, nil, 0)
	eval := k.Evals(1)[0]
	for i, l := range k.LocalIDs() {
		v := k.Candidates()[i]
		got := eval.Push(l) - base
		eval.Pop()
		if want := sys.MarginalWeightFrom(base, X, v); got != want {
			k.Release()
			return fmt.Errorf("marginal of reader %d diverged: kernel %d, brute %d", v, got, want)
		}
	}
	incrNs := timeOp(iters, 10, func() {
		for _, l := range k.LocalIDs() {
			eval.Push(l)
			eval.Pop()
		}
	}) / float64(len(k.LocalIDs()))
	k.Release()
	put("marginal_brute_ns", bruteNs)
	put("marginal_incr_ns", incrNs)
	put("marginal_speedup", bruteNs/incrNs)

	// Branch-and-bound one-shot over every reader, capped so both paths
	// expand the identical truncated tree.
	var bruteW, incrW int
	bruteNs = timeOp(iters, 1, func() {
		bruteW = mwfs.Solve(sys, all, mwfs.Options{MaxNodes: s.solveNodes, BruteForce: true}).Weight
	})
	incrNs = timeOp(iters, 1, func() {
		incrW = mwfs.Solve(sys, all, mwfs.Options{MaxNodes: s.solveNodes}).Weight
	})
	if incrW != bruteW {
		return fmt.Errorf("solve weight diverged: incremental %d, brute %d", incrW, bruteW)
	}
	put("solve_brute_ns", bruteNs)
	put("solve_incr_ns", incrNs)
	put("solve_speedup", bruteNs/incrNs)

	// Full greedy covering schedule (the paper's MCS metric) with GHC.
	mcs := func(ghc baseline.GHC, slots *int) func() {
		return func() {
			r, err := core.RunMCS(sys.Clone(), ghc, core.MCSOptions{})
			if err != nil {
				panic(err)
			}
			*slots = r.Size
		}
	}
	var bruteSlots, lazySlots int
	bruteNs = timeOp(iters, 1, mcs(baseline.GHC{Brute: true}, &bruteSlots))
	incrNs = timeOp(iters, 1, mcs(baseline.GHC{}, &lazySlots))
	if lazySlots != bruteSlots {
		return fmt.Errorf("mcs schedule diverged: lazy %d slots, brute %d slots", lazySlots, bruteSlots)
	}
	put("mcs_brute_ns", bruteNs)
	put("mcs_lazy_ns", incrNs)
	put("mcs_speedup", bruteNs/incrNs)
	put("mcs_schedule_slots", float64(lazySlots))
	return nil
}

// benchCore times the CSR geometry core against the frozen pre-CSR
// builders and counts steady-state allocations. Construction uses one-op
// windows: best-of over many windows is likely to catch a GC-free one,
// where batching would smear collector pauses into every sample.
func benchCore(s suite, m metrics) error {
	sys0, err := deployment(s.seed, s.core)
	if err != nil {
		return err
	}
	put := m.at("core", s.core)
	readers := slices.Clone(sys0.Readers())
	tags := slices.Clone(sys0.Tags())
	iters := s.coreIters

	// Constructor alone.
	csrNs := timeOp(iters, 1, func() {
		if _, err := model.NewSystem(readers, tags); err != nil {
			panic(err)
		}
	})
	refNs := timeOp(iters, 1, func() {
		if _, err := model.BuildReferenceCoverage(readers, tags); err != nil {
			panic(err)
		}
	})
	put("newsystem_csr_ns", csrNs)
	put("newsystem_ref_ns", refNs)
	put("newsystem_speedup", refNs/csrNs)

	// Construction plus first-solve prep: everything a driver pays before
	// its first solve.
	refNs = timeOp(iters, 1, func() { model.BuildReferenceAdjacency(readers, tags) })
	var sys *model.System
	csrNs = timeOp(iters, 1, func() {
		var err error
		if sys, err = model.NewSystem(readers, tags); err != nil {
			panic(err)
		}
		sys.WarmAdjacency()
	})
	put("construct_ref_ns", refNs)
	put("construct_csr_ns", csrNs)
	put("construct_speedup", refNs/csrNs)

	// The timed builds must describe the same geometry (element-for-element
	// equality of every relation is the model package's differential tests).
	ref := model.BuildReferenceAdjacency(readers, tags)
	for u := 0; u < s.core.readers; u++ {
		if got, want := sys.TagsOf(u), ref.TagsOf[u]; !slices.Equal(got, want) {
			return fmt.Errorf("tagsOf[%d]: CSR %v, reference %v", u, got, want)
		}
	}

	// Clone churn: the per-solve setup of every parallel worker and serving
	// request. The fresh path allocates O(readers+tags) per cycle, so it
	// gets one-op windows. A collection clears sync.Pools and the pooled
	// cycle allocates nothing, so collect and re-warm before timing it.
	freshNs := timeOp(iters, 1, func() { sys.Clone() })
	runtime.GC()
	sys.ClonePooled().Release()
	pooledNs := timeOp(iters, 50, func() { sys.ClonePooled().Release() })
	put("clone_fresh_ns", freshNs)
	put("clone_pooled_ns", pooledNs)
	put("clone_speedup", freshNs/pooledNs)

	// Steady-state allocations. The kernel is compiled over X with no
	// conflict matrix, as the greedy passes compile it; its first reader is
	// probed on top of the rest.
	X := feasibleProbeSet(sys)
	sys.Weight(X)
	put("weight_allocs", testing.AllocsPerRun(100, func() { sys.Weight(X) }))
	k := model.CompileLocal(sys, nil, X, nil, 0)
	eval := k.Evals(1)[0]
	probe, rest := k.LocalIDs()[0], k.LocalIDs()[1:]
	put("add_remove_allocs", testing.AllocsPerRun(100, func() {
		for _, l := range rest {
			eval.Push(l)
		}
		for range rest {
			eval.Pop()
		}
	}))
	for _, l := range rest {
		eval.Push(l)
	}
	put("marginal_allocs", testing.AllocsPerRun(100, func() { eval.Push(probe); eval.Weight(); eval.Pop() }))
	k.Release()
	put("pooled_clone_allocs", testing.AllocsPerRun(200, func() { sys.ClonePooled().Release() }))
	return nil
}

// benchParallel times the three parsearch solvers sequentially and at the
// given worker count. Only the MWFS solve is gated: every scheduler funnels
// into it and its workload is a fixed node budget, so its speedup is the
// cleanest pure-search signal.
func benchParallel(s suite, workers int, m metrics) error {
	m["parallel.workers"] = float64(workers)
	iters := s.parallelIters
	record := func(name string, sc scale, seqNs, parNs float64) {
		put := m.at("parallel", sc)
		put(name+"_seq_ns", seqNs)
		put(name+"_par_ns", parNs)
		put(name+"_speedup", seqNs/parNs)
		put(name+"_parallel_efficiency", seqNs/parNs/float64(workers))
	}

	// MWFS: the budget truncates the search at this scale, so the anytime
	// sets may differ between modes (the untruncated bit-identity contract
	// is pinned by the unit tests); the node budget is global in both, which
	// makes the wall clock comparable.
	sys, err := deployment(s.seed, s.mwfs)
	if err != nil {
		return err
	}
	cands := make([]int, s.mwfs.readers)
	for i := range cands {
		cands[i] = i
	}
	var seqW, parW int
	seqNs := timeOp(iters, 1, func() {
		seqW = mwfs.Solve(sys, cands, mwfs.Options{MaxNodes: s.mwfsNodes}).Weight
	})
	parNs := timeOp(iters, 1, func() {
		parW = mwfs.Solve(sys, cands, mwfs.Options{MaxNodes: s.mwfsNodes, Workers: workers}).Weight
	})
	if seqW <= 0 || parW <= 0 {
		return fmt.Errorf("mwfs: degenerate instance: weights seq=%d par=%d", seqW, parW)
	}
	record("mwfs", s.mwfs, seqNs, parNs)
	m.at("parallel", s.mwfs)("mwfs_nodes", float64(s.mwfsNodes))

	// PTAS: the pooled schedule must be bit-identical to the sequential one.
	if sys, err = deployment(s.seed, s.ptas); err != nil {
		return err
	}
	var seqSet, parSet []int
	var seqErr, parErr error
	seqNs = timeOp(iters, 1, func() { seqSet, seqErr = core.NewPTAS().OneShot(sys) })
	parNs = timeOp(iters, 1, func() {
		p := core.NewPTAS()
		p.Workers = workers
		parSet, parErr = p.OneShot(sys)
	})
	if err := errors.Join(seqErr, parErr); err != nil {
		return fmt.Errorf("ptas: %w", err)
	}
	if !slices.Equal(seqSet, parSet) {
		return fmt.Errorf("ptas: parallel schedule diverged: seq %v, par %v", seqSet, parSet)
	}
	record("ptas", s.ptas, seqNs, parNs)
	// Allocations of one sequential OneShot at steady state.
	var m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if _, err := core.NewPTAS().OneShot(sys); err != nil {
		return fmt.Errorf("ptas: %w", err)
	}
	runtime.ReadMemStats(&m2)
	m.at("parallel", s.ptas)("ptas_allocs_per_op", float64(m2.Mallocs-m1.Mallocs))

	// ExactMCS on a fixed 12-reader instance (2^12 candidate sets): too
	// irregular to gate, but sequential and parallel must agree.
	emcs := scale{12, 20}
	sys, err = deploy.Generate(deploy.Config{
		Seed: s.seed, NumReaders: emcs.readers, NumTags: emcs.tags,
		Side: 60, LambdaR: 14, LambdaSmallR: 7,
	})
	if err != nil {
		return err
	}
	var seqOpt, parOpt int
	seqNs = timeOp(iters, 1, func() { seqOpt, seqErr = core.ExactMCS{}.Solve(sys) })
	parNs = timeOp(iters, 1, func() { parOpt, parErr = core.ExactMCS{Workers: workers}.Solve(sys) })
	if err := errors.Join(seqErr, parErr); err != nil {
		return fmt.Errorf("exactmcs: %w", err)
	}
	if seqOpt != parOpt {
		return fmt.Errorf("exactmcs diverged: seq %d, par %d", seqOpt, parOpt)
	}
	record("exactmcs", emcs, seqNs, parNs)
	return nil
}

// benchObs measures the observability overhead of the covering-schedule
// driver (Growth under crashes, the path with the most emission sites). The
// six configurations are sampled round-robin, one run each per pass, so
// drift on the host hits them alike. "baseline" and "nil" run identical
// code; their gap is the noise, and an overhead no larger than it is
// returned as unresolved instead of reported as a signed percent.
func benchObs(s suite, m metrics) (unresolved []string, err error) {
	sys, err := deployment(s.seed, s.obs)
	if err != nil {
		return nil, err
	}
	put := m.at("obs", s.obs)
	g := graph.FromSystem(sys)
	crash := fault.CrashNodes(fault.SampleNodes(s.obs.readers, s.obs.readers/5, s.seed), 1)
	// The registry is reused across the metrics-spans runs, like a live
	// server's.
	reg := obs.NewRegistry()
	configs := []struct {
		name string
		tr   func() obs.Tracer
		reg  *obs.Registry
	}{
		{"baseline", func() obs.Tracer { return nil }, nil},
		{"nil", func() obs.Tracer { return nil }, nil},
		{"collector", func() obs.Tracer { return &obs.Collector{} }, nil},
		{"jsonl-discard", func() obs.Tracer { return obs.NewJSONL(io.Discard) }, nil},
		{"flight", func() obs.Tracer { return obs.NewFlightRecorder(0) }, nil},
		{"metrics-spans", func() obs.Tracer { return nil }, reg},
	}
	runOnce := func(tr obs.Tracer, reg *obs.Registry) (time.Duration, int, error) {
		c := sys.Clone()
		start := time.Now()
		res, err := core.RunMCS(c, core.NewGrowth(g, 1.25), core.MCSOptions{
			Faults:  &fault.Scenario{Seed: s.seed, Events: crash},
			Tracer:  tr,
			Metrics: reg,
		})
		if err != nil {
			return 0, 0, err
		}
		return time.Since(start), res.Size, nil
	}
	_, slots, err := runOnce(nil, nil) // untimed warm-up
	if err != nil {
		return nil, err
	}
	total := make([]time.Duration, len(configs))
	for i := 0; i < s.obsIters; i++ {
		for j, c := range configs {
			d, n, err := runOnce(c.tr(), c.reg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
			if n != slots {
				return nil, fmt.Errorf("%s: %d slots, untraced run %d", c.name, n, slots)
			}
			total[j] += d
		}
	}
	put("slots_per_run", float64(slots))
	perSlot := map[string]float64{}
	for j, c := range configs {
		perRun := float64(total[j].Nanoseconds()) / float64(s.obsIters)
		perSlot[c.name] = perRun / float64(slots)
		put(c.name+"_ns_per_run", perRun)
		put(c.name+"_ns_per_slot", perSlot[c.name])
	}
	base := perSlot["baseline"]
	noise := 100 * math.Abs(perSlot["nil"]-base) / base
	put("noise_pct", noise)
	for _, o := range []struct{ metric, config string }{
		{"overhead_jsonl_pct", "jsonl-discard"},
		{"overhead_flight_pct", "flight"},
		{"overhead_spans_pct", "metrics-spans"},
	} {
		if pct := 100 * (perSlot[o.config] - base) / base; math.Abs(pct) > noise {
			put(o.metric, pct)
		} else {
			unresolved = append(unresolved, "obs."+o.metric+"@"+s.obs.String())
		}
	}

	// One /metrics render of the registry the metrics-spans runs filled:
	// the per-scrape cost a live telemetry server adds.
	start := time.Now()
	if err := reg.Snapshot().WriteExposition(io.Discard); err != nil {
		return nil, fmt.Errorf("exposition: %w", err)
	}
	put("exposition_ns", float64(time.Since(start).Nanoseconds()))

	// The history sampler's per-tick cost over the same registry. Enough
	// samples to wrap a small ring, so steady state dominates.
	store := history.New(reg, history.Options{Capacity: 64})
	const samples = 512
	start = time.Now()
	for i := 0; i < samples; i++ {
		store.Sample()
	}
	put("history_sample_ns", float64(time.Since(start).Nanoseconds())/samples)
	return unresolved, nil
}
