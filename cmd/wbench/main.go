// Command wbench is the weight-engine benchmark and CI regression gate. It
// times the hottest operations of the repository — Weight, a marginal-weight
// probe, the branch-and-bound mwfs.Solve, and a full greedy-MCS
// schedule — at several (readers, tags) scales, on both the brute-force
// path and the incremental path (the compiled local kernel: a Push/Pop
// probe, inside mwfs.Solve, and behind lazy GHC), and archives the numbers
// as JSON (BENCH_weight.json).
//
// Because absolute ns/op depends on the machine, the CI gate tracks the
// *speedup ratios* (brute ns / incremental ns), which are measured in the
// same process and therefore self-normalizing across hardware: a regression
// in the incremental engine shows up as a shrinking ratio no matter how
// fast the runner is. `-check` re-measures and fails (exit 1) if any gated
// ratio fell more than `-tolerance` below the committed baseline.
//
// Usage:
//
//	wbench -o BENCH_weight.json
//	wbench -check -baseline BENCH_weight.json -tolerance 0.15 -o fresh.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"rfidsched/internal/baseline"
	"rfidsched/internal/core"
	"rfidsched/internal/deploy"
	"rfidsched/internal/model"
	"rfidsched/internal/mwfs"
)

// scaleResult holds one (readers, tags) scale's measurements. The *_ns
// fields are informational (machine-dependent); the *_speedup fields are
// the gated, self-normalized metrics.
type scaleResult struct {
	Readers int `json:"readers"`
	Tags    int `json:"tags"`

	WeightNs         float64 `json:"weight_ns"`         // brute full-set Weight
	MarginalBruteNs  float64 `json:"marginal_brute_ns"` // MarginalWeight per probe
	MarginalIncrNs   float64 `json:"marginal_incr_ns"`  // kernel Push/Pop per probe
	SolveBruteNs     float64 `json:"solve_brute_ns"`    // mwfs.Solve, BruteForce
	SolveIncrNs      float64 `json:"solve_incr_ns"`     // mwfs.Solve, incremental
	MCSBruteNs       float64 `json:"mcs_brute_ns"`      // RunMCS with GHC{Brute}
	MCSLazyNs        float64 `json:"mcs_lazy_ns"`       // RunMCS with lazy GHC
	MarginalSpeedup  float64 `json:"marginal_speedup"`
	SolveSpeedup     float64 `json:"solve_speedup"`
	MCSSpeedup       float64 `json:"mcs_speedup"`
	MCSScheduleSlots int     `json:"mcs_schedule_slots"` // sanity: identical on both paths
}

// report is the archived benchmark output. Gates maps metric keys (e.g.
// "solve_speedup@120x2400") to the tracked ratio; -check compares these.
type report struct {
	Seed   uint64             `json:"seed"`
	Iters  int                `json:"iters"`
	Scales []scaleResult      `json:"scales"`
	Gates  map[string]float64 `json:"gates"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out      = fs.String("o", "", "write the fresh report JSON here (default stdout)")
		check    = fs.Bool("check", false, "regression-gate mode: compare against -baseline")
		baseFile = fs.String("baseline", "BENCH_weight.json", "committed baseline JSON for -check")
		tol      = fs.Float64("tolerance", 0.15, "allowed fractional drop per gated metric in -check")
		seed     = fs.Uint64("seed", 2011, "deployment seed")
		iters    = fs.Int("iters", 10, "timed repetitions per measurement")
		scales   = fs.String("scales", "20x400,60x1200,120x2400", "comma-separated readersxtags scales")
		margin   = fs.Float64("gate-margin", 0.4, "fraction shaved off measured ratios when writing gates")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	rep := report{Seed: *seed, Iters: *iters, Gates: map[string]float64{}}
	measured := map[string]float64{} // raw (unshaved) ratios, used by -check
	scaleList, err := parseScales(*scales)
	if err != nil {
		fmt.Fprintf(stderr, "wbench: %v\n", err)
		return 2
	}
	for i, sc := range scaleList {
		res, err := benchScale(sc[0], sc[1], *seed, *iters)
		if err != nil {
			fmt.Fprintf(stderr, "wbench: %dx%d: %v\n", sc[0], sc[1], err)
			return 1
		}
		rep.Scales = append(rep.Scales, res)
		key := fmt.Sprintf("%dx%d", res.Readers, res.Tags)
		// Only the largest scale is gated: small instances finish in
		// microseconds, where fixed setup costs dominate and the ratio is
		// mostly scheduler noise. Smaller scales stay in the report as
		// informational context. Gates are written with -gate-margin shaved
		// off the measurement, so the committed floor absorbs cross-machine
		// ratio drift: the gate exists to catch the incremental engine
		// losing its asymptotic edge (a broken fast path measures ~1x), not
		// single-digit-percent jitter.
		if i == len(scaleList)-1 {
			rep.Gates["marginal_speedup@"+key] = (1 - *margin) * res.MarginalSpeedup
			rep.Gates["solve_speedup@"+key] = (1 - *margin) * res.SolveSpeedup
			rep.Gates["mcs_speedup@"+key] = (1 - *margin) * res.MCSSpeedup
			measured["marginal_speedup@"+key] = res.MarginalSpeedup
			measured["solve_speedup@"+key] = res.SolveSpeedup
			measured["mcs_speedup@"+key] = res.MCSSpeedup
		}
		fmt.Fprintf(stderr, "wbench: %s marginal %.1fx solve %.1fx mcs %.1fx\n",
			key, res.MarginalSpeedup, res.SolveSpeedup, res.MCSSpeedup)
	}

	if err := writeReport(rep, *out, stdout); err != nil {
		fmt.Fprintf(stderr, "wbench: %v\n", err)
		return 1
	}

	if *check {
		return checkAgainstBaseline(measured, *baseFile, *tol, stdout, stderr)
	}
	return 0
}

func parseScales(s string) ([][2]int, error) {
	var out [][2]int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var n, m int
		if _, err := fmt.Sscanf(part, "%dx%d", &n, &m); err != nil || n <= 0 || m <= 0 {
			return nil, fmt.Errorf("bad scale %q (want NxM)", part)
		}
		out = append(out, [2]int{n, m})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scales given")
	}
	return out, nil
}

// benchScale measures one deployment scale. Both paths run on identical
// clones; schedule/solution equality is asserted so the benchmark doubles
// as an end-to-end determinism check.
func benchScale(readers, tags int, seed uint64, iters int) (scaleResult, error) {
	sys, err := deploy.Generate(deploy.Config{
		Seed: seed, NumReaders: readers, NumTags: tags,
		Side: 100, LambdaR: 12, LambdaSmallR: 5,
	})
	if err != nil {
		return scaleResult{}, err
	}
	res := scaleResult{Readers: readers, Tags: tags}

	// A deterministic feasible probe set: greedy by index.
	var X []int
	for v := 0; v < readers; v++ {
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

	// Full-set Weight (brute): the unit everything else multiplies.
	res.WeightNs = timeOp(iters, 200, func() {
		sys.Weight(X)
	})

	// Marginal probes: every reader against X, brute vs incremental.
	base := sys.Weight(X)
	res.MarginalBruteNs = timeOp(iters, 1, func() {
		for v := 0; v < readers; v++ {
			sys.MarginalWeightFrom(base, X, v)
		}
	}) / float64(readers)
	// The kernel is compiled over X as context and every other reader as a
	// candidate, each probed alone on top of X.
	all := make([]int, readers)
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
			return res, fmt.Errorf("marginal of reader %d diverged: kernel %d, brute %d", v, got, want)
		}
	}
	res.MarginalIncrNs = timeOp(iters, 10, func() {
		for _, l := range k.LocalIDs() {
			eval.Push(l)
			eval.Pop()
		}
	}) / float64(len(k.LocalIDs()))
	k.Release()
	res.MarginalSpeedup = res.MarginalBruteNs / res.MarginalIncrNs

	// Branch-and-bound one-shot solve over the full candidate list, capped
	// so both paths expand the identical truncated tree.
	cands := make([]int, readers)
	for i := range cands {
		cands[i] = i
	}
	const solveNodes = 20000
	var wantW int
	res.SolveBruteNs = timeOp(iters, 1, func() {
		r := mwfs.Solve(sys, cands, mwfs.Options{MaxNodes: solveNodes, BruteForce: true})
		wantW = r.Weight
	})
	var gotW int
	res.SolveIncrNs = timeOp(iters, 1, func() {
		r := mwfs.Solve(sys, cands, mwfs.Options{MaxNodes: solveNodes})
		gotW = r.Weight
	})
	if gotW != wantW {
		return res, fmt.Errorf("solve weight diverged: incremental %d, brute %d", gotW, wantW)
	}
	res.SolveSpeedup = res.SolveBruteNs / res.SolveIncrNs

	// Full greedy covering schedule (the paper's MCS metric) with GHC.
	var bruteSlots int
	res.MCSBruteNs = timeOp(iters, 1, func() {
		r, err2 := core.RunMCS(sys.Clone(), baseline.GHC{Brute: true}, core.MCSOptions{})
		if err2 != nil {
			panic(err2)
		}
		bruteSlots = r.Size
	})
	var lazySlots int
	res.MCSLazyNs = timeOp(iters, 1, func() {
		r, err2 := core.RunMCS(sys.Clone(), baseline.GHC{}, core.MCSOptions{})
		if err2 != nil {
			panic(err2)
		}
		lazySlots = r.Size
	})
	if lazySlots != bruteSlots {
		return res, fmt.Errorf("mcs schedule diverged: lazy %d slots, brute %d slots", lazySlots, bruteSlots)
	}
	res.MCSScheduleSlots = lazySlots
	res.MCSSpeedup = res.MCSBruteNs / res.MCSLazyNs
	return res, nil
}

// timeOp returns ns per op, best of iters timed repetitions of inner ops
// (best-of defends against scheduler noise on shared CI runners; one
// untimed warm-up absorbs cold caches).
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

// checkAgainstBaseline compares every gated metric of the committed
// baseline against the fresh *raw* measurement (the committed gate already
// carries the -gate-margin shave, so a fresh ratio may not fall more than
// tol below that conservative floor). Exit codes: 0 pass, 1 regression or
// error.
func checkAgainstBaseline(fresh map[string]float64, baseFile string, tol float64, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(baseFile)
	if err != nil {
		fmt.Fprintf(stderr, "wbench: baseline: %v\n", err)
		return 1
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(stderr, "wbench: baseline %s: %v\n", baseFile, err)
		return 1
	}
	if len(base.Gates) == 0 {
		fmt.Fprintf(stderr, "wbench: baseline %s has no gates\n", baseFile)
		return 1
	}
	failed := 0
	for key, want := range base.Gates {
		got, ok := fresh[key]
		if !ok {
			fmt.Fprintf(stderr, "wbench: FAIL %s: tracked metric missing from fresh run\n", key)
			failed++
			continue
		}
		floor := want * (1 - tol)
		status := "ok"
		if got < floor {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(stdout, "wbench: %-4s %-28s baseline %6.2f  fresh %6.2f  floor %6.2f\n",
			status, key, want, got, floor)
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "wbench: %d gated metric(s) regressed beyond tolerance %.0f%%\n", failed, tol*100)
		return 1
	}
	fmt.Fprintf(stdout, "wbench: all %d gated metrics within tolerance %.0f%%\n", len(base.Gates), tol*100)
	return 0
}
