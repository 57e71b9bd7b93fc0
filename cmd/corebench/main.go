// Command corebench is the geometry-core benchmark and CI regression gate
// for the CSR rebuild of internal/model. It measures, at a paper-scale
// deployment (default 120 readers x 2400 tags):
//
//   - newsystem_speedup: the frozen pre-CSR constructor (defensive copies,
//     per-row append + sort.Slice coverage lists, eager Weight scratch;
//     model.BuildReferenceCoverage) versus the CSR NewSystem,
//   - construct_speedup: the frozen pre-CSR construction + first-solve prep
//     (BuildReferenceCoverage plus the O(n²) pairwise interference,
//     coverage-adjacency and coupling builds of BuildReferenceAdjacency)
//     versus NewSystem + WarmAdjacency, i.e. everything a driver pays before
//     its first solve can start,
//   - clone_speedup: a fresh Clone versus the pooled ClonePooled + Release
//     cycle at steady state, and
//   - allocs/op for steady-state Weight and the local weight kernel's
//     Push/Pop (hard-gated at 0) and for the pooled clone cycle
//     (hard-gated at a small constant).
//
// Like wbench, the CI gate tracks in-process ratios (self-normalizing across
// hardware) with a committed margin-shaved floor; the allocation gates are
// absolute and machine-independent. `-check` re-measures and fails (exit 1)
// on any gate miss; on runners with fewer than 2 CPUs -check auto-skips
// (exit 0) like psbench, since timing ratios on a shared single core gate
// noise, not the code.
//
// Usage:
//
//	corebench -o BENCH_core.json
//	corebench -check -baseline BENCH_core.json -tolerance 0.15 -o fresh.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"rfidsched/internal/deploy"
	"rfidsched/internal/model"
)

// result holds the measurements at the benchmark scale. The *_ns fields are
// informational (machine-dependent); the speedups and alloc counts are gated.
type result struct {
	Readers int `json:"readers"`
	Tags    int `json:"tags"`

	NewSystemRefNs   float64 `json:"newsystem_ref_ns"` // frozen pre-CSR constructor
	NewSystemCSRNs   float64 `json:"newsystem_csr_ns"` // CSR NewSystem
	ConstructRefNs   float64 `json:"construct_ref_ns"` // frozen pre-CSR build + first-solve prep
	ConstructCSRNs   float64 `json:"construct_csr_ns"` // NewSystem + WarmAdjacency
	CloneFreshNs     float64 `json:"clone_fresh_ns"`   // Clone
	ClonePooledNs    float64 `json:"clone_pooled_ns"`  // pooled cycle, warm pools
	NewSystemSpeedup float64 `json:"newsystem_speedup"`
	ConstructSpeedup float64 `json:"construct_speedup"`
	CloneSpeedup     float64 `json:"clone_speedup"`

	WeightAllocs      float64 `json:"weight_allocs"`       // steady-state System.Weight
	MarginalAllocs    float64 `json:"marginal_allocs"`     // steady-state kernel probe (Push, Weight, Pop)
	AddRemoveAllocs   float64 `json:"add_remove_allocs"`   // steady-state kernel Push+Pop of the probe set
	PooledCloneAllocs float64 `json:"pooled_clone_allocs"` // ClonePooled+Release cycle
}

type report struct {
	Seed   uint64             `json:"seed"`
	Iters  int                `json:"iters"`
	NumCPU int                `json:"num_cpu"`
	Result result             `json:"result"`
	Gates  map[string]float64 `json:"gates"`
}

// pooledCloneAllocBound is the absolute ceiling for the pooled clone cycle:
// sync.Pool bookkeeping may allocate a per-P slot container, but the
// O(readers+tags) buffer allocations of the fresh path must be gone.
const pooledCloneAllocBound = 2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("corebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out      = fs.String("o", "", "write the fresh report JSON here (default stdout)")
		check    = fs.Bool("check", false, "regression-gate mode: compare against -baseline")
		baseFile = fs.String("baseline", "BENCH_core.json", "committed baseline JSON for -check")
		tol      = fs.Float64("tolerance", 0.15, "allowed fractional drop per gated ratio in -check")
		seed     = fs.Uint64("seed", 2011, "deployment seed")
		iters    = fs.Int("iters", 200, "timed repetitions per measurement")
		scale    = fs.String("scale", "120x2400", "readersxtags benchmark scale")
		margin   = fs.Float64("gate-margin", 0.4, "fraction shaved off measured ratios when writing gates")
		cpuprof  = fs.String("cpuprofile", "", "write a CPU profile of the measured construction loop here")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *check && runtime.NumCPU() < 2 {
		fmt.Fprintf(stdout, "corebench: skip: %d CPU(s) — timing ratios on a shared single core gate noise, not code\n", runtime.NumCPU())
		return 0
	}

	var n, m int
	if _, err := fmt.Sscanf(*scale, "%dx%d", &n, &m); err != nil || n <= 0 || m <= 0 {
		fmt.Fprintf(stderr, "corebench: bad -scale %q (want NxM)\n", *scale)
		return 2
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintf(stderr, "corebench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "corebench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	res, err := bench(n, m, *seed, *iters)
	if err != nil {
		fmt.Fprintf(stderr, "corebench: %v\n", err)
		return 1
	}
	key := fmt.Sprintf("%dx%d", n, m)
	rep := report{
		Seed: *seed, Iters: *iters, NumCPU: runtime.NumCPU(), Result: res,
		Gates: map[string]float64{
			"newsystem_speedup@" + key: (1 - *margin) * res.NewSystemSpeedup,
			"construct_speedup@" + key: (1 - *margin) * res.ConstructSpeedup,
			"clone_speedup@" + key:     (1 - *margin) * res.CloneSpeedup,
		},
	}
	fmt.Fprintf(stderr, "corebench: %s newsystem %.1fx construct %.1fx clone %.1fx weight-allocs %.0f marginal-allocs %.0f\n",
		key, res.NewSystemSpeedup, res.ConstructSpeedup, res.CloneSpeedup, res.WeightAllocs, res.MarginalAllocs)

	if err := writeReport(rep, *out, stdout); err != nil {
		fmt.Fprintf(stderr, "corebench: %v\n", err)
		return 1
	}

	// The allocation gates are absolute: zero-alloc steady state is a
	// machine-independent property, so it is enforced on every run (plain
	// and -check), not against a baseline.
	failed := 0
	if res.WeightAllocs != 0 {
		fmt.Fprintf(stderr, "corebench: FAIL steady-state Weight allocates %.1f/op, want 0\n", res.WeightAllocs)
		failed++
	}
	if res.MarginalAllocs != 0 {
		fmt.Fprintf(stderr, "corebench: FAIL steady-state kernel probe allocates %.1f/op, want 0\n", res.MarginalAllocs)
		failed++
	}
	if res.AddRemoveAllocs != 0 {
		fmt.Fprintf(stderr, "corebench: FAIL steady-state kernel Push/Pop allocates %.1f/op, want 0\n", res.AddRemoveAllocs)
		failed++
	}
	if res.PooledCloneAllocs > pooledCloneAllocBound {
		fmt.Fprintf(stderr, "corebench: FAIL pooled clone cycle allocates %.1f/op, want <= %d\n",
			res.PooledCloneAllocs, pooledCloneAllocBound)
		failed++
	}
	if failed > 0 {
		return 1
	}

	if *check {
		fresh := map[string]float64{
			"newsystem_speedup@" + key: res.NewSystemSpeedup,
			"construct_speedup@" + key: res.ConstructSpeedup,
			"clone_speedup@" + key:     res.CloneSpeedup,
		}
		return checkAgainstBaseline(fresh, *baseFile, *tol, stdout, stderr)
	}
	return 0
}

// bench measures one deployment scale. The CSR relations are differentially
// verified against the frozen reference inside the timing harness, so the
// benchmark doubles as an end-to-end equivalence check.
func bench(n, m int, seed uint64, iters int) (result, error) {
	sys0, err := deploy.Generate(deploy.Config{
		Seed: seed, NumReaders: n, NumTags: m,
		Side: 100, LambdaR: 12, LambdaSmallR: 5,
	})
	if err != nil {
		return result{}, err
	}
	readers := append([]model.Reader(nil), sys0.Readers()...)
	tags := append([]model.Tag(nil), sys0.Tags()...)
	res := result{Readers: n, Tags: m}

	// Constructor alone: the pre-CSR NewSystem versus the CSR NewSystem.
	// All construction measurements use single-op windows: best-of over many
	// windows is overwhelmingly likely to catch at least one GC-free run,
	// where batching ops per window would smear collector pauses into every
	// sample.
	res.NewSystemCSRNs = timeOp(iters, 1, func() {
		if _, err := model.NewSystem(readers, tags); err != nil {
			panic(err)
		}
	})
	res.NewSystemRefNs = timeOp(iters, 1, func() {
		if _, err := model.BuildReferenceCoverage(readers, tags); err != nil {
			panic(err)
		}
	})
	res.NewSystemSpeedup = res.NewSystemRefNs / res.NewSystemCSRNs

	// Construction + first-solve prep: everything a driver pays before its
	// first solve.
	res.ConstructRefNs = timeOp(iters, 1, func() {
		model.BuildReferenceAdjacency(readers, tags)
	})
	var sys *model.System
	res.ConstructCSRNs = timeOp(iters, 1, func() {
		s, err2 := model.NewSystem(readers, tags)
		if err2 != nil {
			panic(err2)
		}
		s.WarmAdjacency()
		sys = s
	})
	res.ConstructSpeedup = res.ConstructRefNs / res.ConstructCSRNs

	// Equivalence spot check: the timed builds must describe the same
	// geometry (full element-for-element equality is covered by the model
	// package's differential tests).
	ref := model.BuildReferenceAdjacency(readers, tags)
	for u := 0; u < n; u++ {
		got, want := sys.TagsOf(u), ref.TagsOf[u]
		if len(got) != len(want) {
			return res, fmt.Errorf("tagsOf[%d]: CSR %d entries, reference %d", u, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return res, fmt.Errorf("tagsOf[%d][%d]: CSR %d, reference %d", u, i, got[i], want[i])
			}
		}
	}

	// Clone churn: the per-solve setup of every parallel worker and serving
	// request — a System clone, dropped right after. Fresh path allocates
	// O(readers+tags) buffers each cycle; the pooled path recycles them.
	// Single-op windows: the fresh path allocates O(readers+tags) per
	// cycle, so batched windows are certain to absorb a collection — best-of
	// over many one-op windows finds the GC-free ones.
	res.CloneFreshNs = timeOp(iters, 1, func() {
		sys.Clone()
	})
	// Collect before timing the pooled path — a collection clears sync.Pools,
	// and the pooled cycle itself allocates nothing, so flushing first (then
	// re-warming) keeps pool misses out of every window.
	runtime.GC()
	sys.ClonePooled().Release()
	res.ClonePooledNs = timeOp(iters, 50, func() {
		sys.ClonePooled().Release()
	})
	res.CloneSpeedup = res.CloneFreshNs / res.ClonePooledNs

	// Steady-state allocation counts.
	X := feasibleProbeSet(sys)
	sys.Weight(X) // warm scratch
	res.WeightAllocs = testing.AllocsPerRun(100, func() { sys.Weight(X) })
	// The kernel is compiled over X with no conflict matrix, as the greedy
	// passes compile it; its first reader is probed on top of the rest.
	k := model.CompileLocal(sys, nil, X, nil, 0)
	eval := k.Evals(1)[0]
	probe, rest := k.LocalIDs()[0], k.LocalIDs()[1:]
	pushPop := func() {
		for _, l := range rest {
			eval.Push(l)
		}
		for range rest {
			eval.Pop()
		}
	}
	res.AddRemoveAllocs = testing.AllocsPerRun(100, pushPop)
	for _, l := range rest {
		eval.Push(l)
	}
	res.MarginalAllocs = testing.AllocsPerRun(100, func() { eval.Push(probe); eval.Weight(); eval.Pop() })
	k.Release()
	res.PooledCloneAllocs = testing.AllocsPerRun(200, func() {
		c := sys.ClonePooled()
		c.Release()
	})
	return res, nil
}

// feasibleProbeSet builds a deterministic feasible activation set greedily by
// index — the same probe wbench uses.
func feasibleProbeSet(sys *model.System) []int {
	var X []int
	for v := 0; v < sys.NumReaders(); v++ {
		ok := true
		for _, u := range X {
			if !sys.Independent(u, v) {
				ok = false
				break
			}
		}
		if ok {
			X = append(X, v)
		}
	}
	return X
}

// timeOp returns ns per op, best of iters timed repetitions of inner ops
// (best-of defends against scheduler noise on shared CI runners; one untimed
// warm-up absorbs cold caches, and starting from a freshly collected heap
// keeps the previous measurement's garbage out of this one).
func timeOp(iters, inner int, f func()) float64 {
	f()
	best := time.Duration(1<<63 - 1)
	for i := 0; i < iters; i++ {
		start := time.Now()
		for j := 0; j < inner; j++ {
			f()
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(inner)
}

func writeReport(rep report, out string, stdout io.Writer) error {
	var w io.Writer = stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// checkAgainstBaseline compares every gated ratio of the committed baseline
// against the fresh raw measurement (the committed gate already carries the
// -gate-margin shave). Exit codes: 0 pass, 1 regression or error.
func checkAgainstBaseline(fresh map[string]float64, baseFile string, tol float64, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(baseFile)
	if err != nil {
		fmt.Fprintf(stderr, "corebench: baseline: %v\n", err)
		return 1
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(stderr, "corebench: baseline %s: %v\n", baseFile, err)
		return 1
	}
	if len(base.Gates) == 0 {
		fmt.Fprintf(stderr, "corebench: baseline %s has no gates\n", baseFile)
		return 1
	}
	failed := 0
	for key, want := range base.Gates {
		got, ok := fresh[key]
		if !ok {
			fmt.Fprintf(stderr, "corebench: FAIL %s: tracked metric missing from fresh run\n", key)
			failed++
			continue
		}
		floor := want * (1 - tol)
		status := "ok"
		if got < floor {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(stdout, "corebench: %-4s %-28s baseline %6.2f  fresh %6.2f  floor %6.2f\n",
			status, key, want, got, floor)
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "corebench: %d gated metric(s) regressed beyond tolerance %.0f%%\n", failed, tol*100)
		return 1
	}
	fmt.Fprintf(stdout, "corebench: all %d gated metrics within tolerance %.0f%%\n", len(base.Gates), tol*100)
	return 0
}
