package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"rfidsched/internal/baseline"
	"rfidsched/internal/checkpoint"
	"rfidsched/internal/core"
	"rfidsched/internal/deploy"
	"rfidsched/internal/graph"
	"rfidsched/internal/model"
	"rfidsched/internal/obs"
	"rfidsched/internal/parsearch"
	"rfidsched/internal/randx"
	"rfidsched/internal/stats"
	"rfidsched/internal/verify"
)

// The paper deployment at the 120 readers x 2400 tags scale: side 100,
// lambda_R = 12, lambda_r = 5. Its geometry is drawn once from deploy seed
// 2011; the run seed relabels it. Generator seeds change the cost of one MCS
// run by two orders of magnitude (alg2 takes 2 ms on some, 700 ms on
// others), so runs on different seeds could never agree within a bound;
// relabelling changes every solver's search order and tie-breaks while
// keeping the instance's difficulty.
const (
	paperReaders    = 120
	paperTags       = 2400
	paperDeploySeed = 2011
	rho             = 1.25

	// mcsCopies relabelled copies are cycled through, one per pass, so a
	// run's medians and quality sums cover several search orders. It is odd,
	// so alternating traced and untraced passes run every copy both ways.
	mcsCopies = 5
	// layerGap is the largest share of pass wall time the traced layers may
	// leave unattributed: the benchmark's own work between its timed calls
	// (the pristine clone, the scheduler's construction, the checkpoint
	// file's create and close).
	layerGap = 0.02
	// mcsSetups set-ups give setup_s its median; each includes a warm-up
	// pass of about 1.3 s on the unrelabelled deployment, so set-up costs
	// the same for every seed.
	mcsSetups = 3
)

// paperDeployment draws the paper's 120x2400 deployment from a deploy seed.
func paperDeployment(seed uint64) (*deploy.Deployment, error) {
	cfg := deploy.Paper(seed, 12, 5)
	cfg.NumReaders, cfg.NumTags = paperReaders, paperTags
	sys, err := deploy.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("paper deployment: %w", err)
	}
	return deploy.ToDeployment(sys), nil
}

// relabel returns a copy of d with its readers and its tags in an order
// drawn from rng: the same geometry under new indices.
func relabel(d *deploy.Deployment, rng *randx.RNG) *deploy.Deployment {
	out := &deploy.Deployment{
		Side:    d.Side,
		Readers: append([]deploy.ReaderRecord(nil), d.Readers...),
		Tags:    append([]deploy.TagRecord(nil), d.Tags...),
	}
	rng.Shuffle(len(out.Readers), func(i, j int) { out.Readers[i], out.Readers[j] = out.Readers[j], out.Readers[i] })
	rng.Shuffle(len(out.Tags), func(i, j int) { out.Tags[i], out.Tags[j] = out.Tags[j], out.Tags[i] })
	return out
}

func newScheduler(alg string, g *graph.Graph, seed uint64) model.OneShotScheduler {
	switch alg {
	case "alg1":
		return core.NewPTAS()
	case "alg2":
		return core.NewGrowth(g, rho)
	case "alg3":
		return core.NewDistributed(g, rho)
	case "ghc":
		return baseline.GHC{}
	default:
		return baseline.NewColorwave(g, seed)
	}
}

func isPaperAlg(alg string) bool { return alg == "alg1" || alg == "alg2" || alg == "alg3" }

// mcsRun is one verified MCS run: the wall time of each step timed from the
// benchmark, and (traced) what the layers' own spans and counters saw.
type mcsRun struct {
	alg                             int
	wall                            time.Duration // ToSystem through verify
	toSystem, graph, runMCS, verify time.Duration
	solve, firstSlot, ckpt          time.Duration // traced only
	slots, firstTags                int
	digest                          [32]byte
	ckptBytes, ckptRecords, tasks   int64
	subtreeNodes, subtreeSamples    float64
}

// mcsBench is the set-up state of mcs-paper, or of the solver probe other
// workloads run on their own deployments.
type mcsBench struct {
	cfg    runConfig
	rep    *report
	label  string // prefixes its notes
	copies []*deploy.Deployment
	warm   *deploy.Deployment // the warm-up pass's input
	cwSeed uint64
	first  map[[2]int]mcsRun // first run of each (copy, alg)
	runs   int               // names each run's checkpoint file
	held   []any             // the state of the last pass's runs, for heap_live_mb
}

func (b *mcsBench) close() {}

func runMCSPaper(cfg runConfig, rep *report) error {
	rep.note("mcs-paper: closed loop, 1 caller; %d readers x %d tags from deploy seed %d, %d relabelled copies; solver workers %d",
		paperReaders, paperTags, paperDeploySeed, mcsCopies, cfg.workers)
	b, err := timeSetups(cfg, rep, mcsSetups, func() (*mcsBench, error) {
		base, err := paperDeployment(paperDeploySeed)
		if err != nil {
			return nil, err
		}
		rng := randx.New(cfg.seed)
		b := &mcsBench{cfg: cfg, rep: rep, cwSeed: rng.Uint64(), warm: base, first: map[[2]int]mcsRun{}}
		for i := 0; i < mcsCopies; i++ {
			b.copies = append(b.copies, relabel(base, rng))
		}
		b.pass(-1, false) // the untimed warm-up pass
		return b, nil
	})
	if err != nil {
		return err
	}
	if !cfg.trace {
		passes, _ := b.measure(cfg.measure, false)
		p50, tail, _ := b.latency(passes)
		rep.set("p50_ms", p50, "ms")
		rep.set("tail_ms", tail, "ms")
		slots, firstTags, _ := b.quality()
		rep.set("slots", float64(slots), "count")
		rep.set("first_slot_tags", float64(firstTags), "count")
		// What one verified pass keeps live: five systems after their runs,
		// their pristine clones, graphs, schedulers and results.
		rep.set("heap_live_mb", heapLiveMB(), "MiB")
		runtime.KeepAlive(b.held)
		rep.note("fail_ratio %.4g (%d of %d runs)", ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
		return nil
	}
	plain, traced := b.measure(cfg.measure, true)
	b.label = "untraced "
	p50Plain, _, _ := b.latency(plain)
	b.label = "traced "
	p50Traced, _, meds := b.latency(traced)
	rep.set("bench.trace_overhead_pct", 100*(p50Traced-p50Plain)/p50Plain, "%")
	b.reportSolverLayers(traced, meds, true)
	rep.set("bench.fail_ratio", ratio(float64(rep.failed), float64(rep.attempted)), "ratio")
	return serveLayers(rep, b.copies)
}

// solverLayers is the solver probe of the workloads that do not drive the
// solvers themselves: one traced pass of every algorithm on each of their
// own deployments, with the serve requests' worker count, reported as the
// same per-layer metrics mcs-paper reports.
func solverLayers(cfg runConfig, rep *report, deps []*deploy.Deployment, workers int) {
	b := &mcsBench{cfg: cfg, rep: rep, label: "solver probe ", copies: deps, cwSeed: 7, first: map[[2]int]mcsRun{}}
	b.cfg.workers = workers
	var passes [][]mcsRun
	for c := range deps {
		passes = append(passes, b.pass(c, true))
	}
	_, _, meds := b.latency(passes)
	b.reportSolverLayers(passes, meds, false)
}

// reportSolverLayers sets every solver-side per-layer metric from traced
// passes and their per-algorithm median run times; checkGap holds the
// layers to layerGap.
func (b *mcsBench) reportSolverLayers(passes [][]mcsRun, meds map[string]float64, checkGap bool) {
	for _, alg := range paperAlgs {
		b.rep.set("mcs_"+alg+"_s", meds[alg]/1e3, "s")
	}
	b.reportLayers(passes, checkGap)
	b.reportOneShotCounts()
	_, _, algSlots := b.quality()
	for alg, n := range algSlots {
		b.rep.set("core."+alg+".slots", float64(n), "count")
	}
}

// measure runs passes until d has elapsed, and at least one pass per copy.
// With alternate, every other pass is traced and returned apart, so the
// host's drift over the run hits traced and untraced passes alike.
func (b *mcsBench) measure(d time.Duration, alternate bool) (plain, traced [][]mcsRun) {
	minPasses := len(b.copies)
	if alternate {
		minPasses *= 2
	}
	end := time.Now().Add(d)
	for i := 0; i < minPasses || time.Now().Before(end); i++ {
		if alternate && i%2 == 1 {
			traced = append(traced, b.pass(i%len(b.copies), true))
		} else {
			plain = append(plain, b.pass(i%len(b.copies), false))
		}
	}
	return plain, traced
}

// pass runs every algorithm once on one copy (the warm-up input for copy
// -1) and returns the runs that passed their checks.
func (b *mcsBench) pass(copyIdx int, traced bool) []mcsRun {
	var runs []mcsRun
	b.held = nil
	dep := b.warm
	if copyIdx >= 0 {
		dep = b.copies[copyIdx]
	}
	for ai, alg := range allAlgs {
		b.rep.attempted++
		r, err := b.runOne(dep, ai, traced)
		if err != nil {
			b.rep.fail("copy %d %s: %v", copyIdx, alg, err)
			continue
		}
		key := [2]int{copyIdx, ai}
		if prev, ok := b.first[key]; !ok {
			b.first[key] = r
		} else if prev.digest != r.digest {
			b.rep.fail("copy %d %s: schedule differs from the first run on the same input", copyIdx, alg)
			continue
		}
		runs = append(runs, r)
	}
	return runs
}

// runOne is one verified MCS run: Deployment.ToSystem, graph.FromSystem,
// core.RunMCS with a file checkpoint, verify.Schedule on a pristine clone.
// A traced run also checks that the layers' spans account for the run: one
// solve and one checkpoint write per slot, a header plus one record per
// slot, and the driver's residual time not negative.
func (b *mcsBench) runOne(dep *deploy.Deployment, algIdx int, traced bool) (mcsRun, error) {
	alg := allAlgs[algIdx]
	r := mcsRun{alg: algIdx}
	var reg *obs.Registry
	if traced {
		reg = obs.NewRegistry()
		parsearch.EnableMetrics(reg)
		defer parsearch.EnableMetrics(nil)
	}
	t0 := time.Now()
	sys, err := dep.ToSystem()
	if err != nil {
		return r, err
	}
	t1 := time.Now()
	g := graph.FromSystem(sys)
	t2 := time.Now()
	pristine := sys.Clone()
	sched := newScheduler(alg, g, b.cwSeed)
	// A fresh file per run: truncating a just-fsynced file costs an ext4
	// journal commit (~35 ms) that no layer of the program pays.
	b.runs++
	ckpt, err := checkpoint.Create(filepath.Join(b.cfg.dir, fmt.Sprintf("%s-%d.ckpt", alg, b.runs)))
	if err != nil {
		return r, err
	}
	t3 := time.Now()
	res, err := core.RunMCS(sys, sched, core.MCSOptions{
		RecordSlots:   true,
		SolverWorkers: b.cfg.workers,
		Checkpoint:    ckpt,
		Metrics:       reg,
	})
	t4 := time.Now()
	if cerr := ckpt.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return r, err
	}
	t5 := time.Now()
	_, err = verify.Schedule(pristine, res, verify.Options{RequireFeasible: isPaperAlg(alg)})
	t6 := time.Now()
	if err != nil {
		return r, err
	}
	if res.Incomplete || res.TotalRead != pristine.CoverableCount() || len(res.Slots) == 0 {
		return r, fmt.Errorf("read %d of %d coverable tags (incomplete %v)", res.TotalRead, pristine.CoverableCount(), res.Incomplete)
	}
	b.held = append(b.held, sys, pristine, g, sched, res)
	r.wall = t6.Sub(t0)
	r.toSystem, r.graph, r.runMCS, r.verify = t1.Sub(t0), t2.Sub(t1), t4.Sub(t3), t6.Sub(t5)
	r.slots, r.firstTags = res.Size, res.Slots[0].TagsRead
	r.digest = scheduleDigest(res)
	if reg != nil {
		snap := reg.Snapshot()
		solve := snap.Histograms[obs.SpanMetric(obs.SpanSolve)]
		r.solve = seconds(float64(solve.N) * solve.Mean)
		r.firstSlot = seconds(solve.Max)
		write := snap.Histograms[obs.SpanMetric(obs.SpanCheckpointWrite)]
		r.ckpt = seconds(float64(write.N) * write.Mean)
		r.ckptBytes = snap.Counters["checkpoint.bytes"]
		r.ckptRecords = snap.Counters["checkpoint.records"]
		r.tasks = snap.Counters["parsearch.pool.tasks"]
		nodes := snap.Histograms["parsearch.subtree_nodes"]
		r.subtreeNodes, r.subtreeSamples = float64(nodes.N)*nodes.Mean, float64(nodes.N)
		switch {
		case solve.N != res.Size:
			return r, fmt.Errorf("%d solve spans for %d slots", solve.N, res.Size)
		case write.N != res.Size:
			return r, fmt.Errorf("%d checkpoint write spans for %d slots", write.N, res.Size)
		case r.ckptRecords != int64(res.Size)+1:
			return r, fmt.Errorf("%d checkpoint records for a header and %d slots", r.ckptRecords, res.Size)
		case r.runMCS < r.solve+r.ckpt:
			return r, fmt.Errorf("solve and checkpoint spans (%v) exceed RunMCS wall time (%v)", r.solve+r.ckpt, r.runMCS)
		}
	}
	return r, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * 1e9) }

// scheduleDigest hashes the schedule bytes: every slot's active readers,
// tags read and fallback flag.
func scheduleDigest(res *core.MCSResult) [32]byte {
	h := sha256.New()
	for _, sl := range res.Slots {
		fmt.Fprintf(h, "%v %d %t\n", sl.Active, sl.TagsRead, sl.Fallback)
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// latency returns the geometric mean over the paper algorithms of the
// median and of the upper quartile of the verified-run wall time, and each
// algorithm's median, in ms, and notes each algorithm's numbers. A 30 s run
// holds about 15 runs per algorithm: too few for a high percentile, so the
// upper quartile is the tail reported.
func (b *mcsBench) latency(passes [][]mcsRun) (p50, tail float64, meds map[string]float64) {
	var paperMeds, upper []float64
	meds = map[string]float64{}
	for ai, alg := range allAlgs {
		var walls []float64
		for _, pass := range passes {
			for _, r := range pass {
				if r.alg == ai {
					walls = append(walls, ms(r.wall))
				}
			}
		}
		if len(walls) == 0 {
			continue
		}
		sum := stats.Summarize(walls)
		p75 := stats.Quantile(walls, 0.75)
		b.rep.note("%smcs_%s_s p25 %.4f median %.4f p75 %.4f max %.4f (n=%d)", b.label, alg,
			stats.Quantile(walls, 0.25)/1e3, sum.Median/1e3, p75/1e3, sum.Max/1e3, sum.N)
		meds[alg] = sum.Median
		if isPaperAlg(alg) {
			paperMeds = append(paperMeds, sum.Median)
			upper = append(upper, p75)
		}
	}
	if len(paperMeds) != len(paperAlgs) {
		return 0, 0, meds // every run of some paper algorithm failed; rep.failed says why
	}
	return geomean(paperMeds), geomean(upper), meds
}

// quality returns the schedule length and the first slot's tags summed
// over the paper algorithms and every copy, and each algorithm's schedule
// length over the copies, and notes one digest per algorithm.
func (b *mcsBench) quality() (slots, firstTags int, algSlots map[string]int) {
	algSlots = map[string]int{}
	for ai, alg := range allAlgs {
		h := sha256.New()
		n := 0
		for c := range b.copies {
			r := b.first[[2]int{c, ai}]
			h.Write(r.digest[:])
			n += r.slots
			if isPaperAlg(alg) {
				slots += r.slots
				firstTags += r.firstTags
			}
		}
		b.rep.note("%sdigest %s %s", b.label, alg, hex.EncodeToString(h.Sum(nil)))
		algSlots[alg] = n
	}
	return slots, firstTags, algSlots
}

// reportLayers turns the traced passes into per-layer metrics and, with
// checkGap, checks that the layers cover the pass wall time within layerGap.
// RunMCS counts as covered: runOne has checked that its solve and
// checkpoint spans fit inside it, and the rest of it is the driver.
func (b *mcsBench) reportLayers(passes [][]mcsRun, checkGap bool) {
	var toSys, graphT, wall, driver, ckpt, ver []float64
	var bytes, records, tasks, nodes, nodeSamples, sumWall, sumCovered float64
	solve := make([][]float64, len(allAlgs))
	first := make([][]float64, len(allAlgs))
	for _, pass := range passes {
		var pw, pd, pc, pv float64
		for _, r := range pass {
			toSys = append(toSys, ms(r.toSystem))
			graphT = append(graphT, ms(r.graph))
			solve[r.alg] = append(solve[r.alg], ms(r.solve))
			first[r.alg] = append(first[r.alg], ms(r.firstSlot))
			d := r.runMCS - r.solve - r.ckpt
			pw += ms(r.wall)
			pd += ms(d)
			pc += ms(r.ckpt)
			pv += ms(r.verify)
			sumWall += ms(r.wall)
			sumCovered += ms(r.toSystem + r.graph + r.runMCS + r.verify)
			bytes += float64(r.ckptBytes)
			records += float64(r.ckptRecords)
			tasks += float64(r.tasks)
			nodes += r.subtreeNodes
			nodeSamples += r.subtreeSamples
		}
		wall = append(wall, pw)
		driver = append(driver, pd)
		ckpt = append(ckpt, pc)
		ver = append(ver, pv)
	}
	n := float64(len(passes))
	rep := b.rep
	mean := func(xs []float64) float64 { return stats.Summarize(xs).Mean }
	rep.set("deploy.to_system_ms", mean(toSys), "ms")
	rep.set("graph.from_system_ms", mean(graphT), "ms")
	for ai, alg := range allAlgs {
		rep.set("core."+alg+".solve_ms", mean(solve[ai]), "ms")
		rep.set("core."+alg+".first_slot_ms", mean(first[ai]), "ms")
	}
	rep.set("parsearch.tasks", tasks/n, "count")
	rep.set("parsearch.subtree_nodes_mean", ratio(nodes, nodeSamples), "count")
	rep.set("core.driver_ms", mean(driver), "ms")
	rep.set("checkpoint.write_ms", mean(ckpt), "ms")
	rep.set("checkpoint.bytes", bytes/n, "bytes")
	rep.set("checkpoint.records", records/n, "count")
	rep.set("verify.schedule_ms", mean(ver), "ms")
	rep.set("bench.pass_ms", mean(wall), "ms")
	gap := 1 - sumCovered/sumWall
	rep.set("bench.unattributed_share", gap, "ratio")
	rep.note("%slayers per pass (ms, n=%d passes): to_system %.3g graph %.3g solve %.4g checkpoint %.3g driver %.3g verify %.3g, unattributed %.4f of %.4g (allowed %.2f)",
		b.label, len(passes), mean(toSys)*float64(len(allAlgs)), mean(graphT)*float64(len(allAlgs)),
		sumSolve(solve), mean(ckpt), mean(driver), mean(ver), gap, mean(wall), layerGap)
	if checkGap && gap > layerGap {
		rep.invalidate("traced layers leave %.4f of pass wall time unattributed, more than %.2f", gap, layerGap)
	}
}

func sumSolve(solve [][]float64) float64 {
	s := 0.0
	for _, xs := range solve {
		s += stats.Summarize(xs).Mean
	}
	return s
}

// reportOneShotCounts runs one extra traced OneShot per paper algorithm on
// a fresh system of copy 0, twice, and reports the counts that repeat.
func (b *mcsBench) reportOneShotCounts() {
	first, err := oneShotCounts(b.copies[0], b.cfg.workers)
	var second map[string]float64
	if err == nil {
		second, err = oneShotCounts(b.copies[0], b.cfg.workers)
	}
	if err != nil {
		b.rep.attempted++
		b.rep.fail("one-shot counts: %v", err)
		return
	}
	for _, name := range sortedKeys(first) {
		if first[name] == second[name] {
			b.rep.set(name, first[name], "count")
		} else {
			b.rep.note("dropped %s: %v then %v on the same input", name, first[name], second[name])
		}
	}
}

func oneShotCounts(dep *deploy.Deployment, workers int) (map[string]float64, error) {
	sys, err := dep.ToSystem()
	if err != nil {
		return nil, err
	}
	g := graph.FromSystem(sys)
	ptas := core.NewPTAS()
	ptas.SetWorkers(workers)
	growth := core.NewGrowth(g, rho)
	growth.SetWorkers(workers)
	dist := core.NewDistributed(g, rho)
	for _, s := range []model.OneShotScheduler{ptas, growth, dist} {
		X, err := s.OneShot(sys.Clone())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name(), err)
		}
		if !sys.IsFeasible(X) {
			return nil, fmt.Errorf("%s: infeasible one-shot set", s.Name())
		}
	}
	if dist.LastStats == nil {
		return nil, fmt.Errorf("%s recorded no network statistics", dist.Name())
	}
	return map[string]float64{
		"core.alg1.evals":        float64(ptas.LastEvals),
		"core.alg2.max_radius":   float64(growth.LastMaxRadius),
		"core.alg2.coordinators": float64(growth.LastCoordinators),
		"core.alg3.rounds":       float64(dist.LastStats.Rounds),
		"core.alg3.messages":     float64(dist.LastStats.MessagesSent),
	}, nil
}
