package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tiny keeps every section fast enough for the unit-test suite while still
// running each measurement body and in-run equivalence assert. Ratio
// quality does not matter here, only the report and the gate plumbing.
func tiny(gates ...gate) suite {
	return suite{
		seed:   2011,
		weight: []scale{{10, 150}}, weightIters: 2, solveNodes: 20000,
		core: scale{12, 80}, coreIters: 2,
		ptas: scale{20, 400}, parallelIters: 1,
		obs: scale{12, 150}, obsIters: 2,
		gates: gates,
	}
}

// tinyScales maps each section to its scale in tiny(), for re-keying the
// paper gate table.
var tinyScales = map[string]string{
	"weight": "10x150", "core": "12x80", "parallel": "20x400", "obs": "12x150",
}

// tinyKey re-keys a paper metric "section.name@scale" to the tiny suite.
func tinyKey(metric string) string {
	section, _, _ := strings.Cut(metric, ".")
	name, _, _ := strings.Cut(metric, "@")
	return name + "@" + tinyScales[section]
}

// limitGates is the paper table's absolute gates (allocations and the
// history ceiling) at the tiny scales: they hold at any scale.
func limitGates() []gate {
	var gates []gate
	for _, g := range paperSuite.gates {
		if g.max {
			g.metric = tinyKey(g.metric)
			gates = append(gates, g)
		}
	}
	return gates
}

type result struct {
	code           int
	stdout, stderr string
}

func runTiny(t *testing.T, s suite, numCPU int, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr, s, numCPU)
	return result{code, stdout.String(), stderr.String()}
}

func decode(t *testing.T, data []byte) report {
	t.Helper()
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, data)
	}
	return rep
}

// sectionKeys are the metrics each section must report at the tiny scales.
var sectionKeys = map[string][]string{
	"weight": {
		"weight.iters", "weight.marginal_speedup@10x150", "weight.solve_speedup@10x150",
		"weight.mcs_speedup@10x150", "weight.mcs_schedule_slots@10x150",
	},
	"core": {
		"core.iters", "core.newsystem_speedup@12x80", "core.construct_speedup@12x80",
		"core.clone_speedup@12x80",
	},
	"parallel": {
		"parallel.iters", "parallel.workers", "parallel.ptas_parallel_efficiency@20x400",
		"parallel.ptas_speedup@20x400", "parallel.ptas_allocs_per_op@20x400",
		"parallel.exactmcs_speedup@12x20",
	},
	"obs": {
		"obs.iters", "obs.baseline_ns_per_slot@12x150", "obs.nil_ns_per_slot@12x150",
		"obs.collector_ns_per_slot@12x150", "obs.jsonl-discard_ns_per_slot@12x150",
		"obs.flight_ns_per_slot@12x150", "obs.metrics-spans_ns_per_slot@12x150",
		"obs.noise_pct@12x150", "obs.exposition_ns@12x150", "obs.history_sample_ns@12x150",
	},
}

// TestReport pins the report shape, one subtest per section, and that the
// absolute gates, allocations among them, are enforced on a plain run.
func TestReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_micro.json")
	r := runTiny(t, tiny(limitGates()...), 2, "-o", out)
	if r.code != 0 {
		t.Fatalf("exit %d:\n%s", r.code, r.stderr)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	rep := decode(t, data)
	if rep.Seed != 2011 || rep.NumCPU != 2 || rep.GOMAXPROCS < 1 || rep.Unresolved == nil {
		t.Errorf("header: seed %d num_cpu %d gomaxprocs %d unresolved %v", rep.Seed, rep.NumCPU, rep.GOMAXPROCS, rep.Unresolved)
	}
	for section, keys := range sectionKeys {
		t.Run(section, func(t *testing.T) {
			for _, key := range keys {
				if v, ok := rep.Metrics[key]; !ok || v <= 0 && key != "obs.noise_pct@12x150" {
					t.Errorf("metric %s missing or non-positive: %v", key, v)
				}
			}
			// Every paper gate on this section names a metric the run
			// produces, and every absolute gate on it is enforced.
			for _, g := range paperSuite.gates {
				if _, ok := rep.Metrics[tinyKey(g.metric)]; strings.HasPrefix(g.metric, section+".") && !ok {
					t.Errorf("paper gate %s: no metric %s in the run", g.metric, tinyKey(g.metric))
				}
			}
			for _, g := range limitGates() {
				if strings.HasPrefix(g.metric, section+".") && !strings.Contains(r.stderr, "ok   "+g.metric) {
					t.Errorf("gate %s not enforced:\n%s", g.metric, r.stderr)
				}
			}
		})
	}
	// Each obs overhead is either resolved above the noise or listed as
	// unresolved, never both.
	t.Run("obs-overheads", func(t *testing.T) {
		unresolved := map[string]bool{}
		for _, key := range rep.Unresolved {
			unresolved[key] = true
		}
		for _, name := range []string{"jsonl", "flight", "spans"} {
			key := "obs.overhead_" + name + "_pct@12x150"
			if _, ok := rep.Metrics[key]; ok == unresolved[key] {
				t.Errorf("%s: in metrics %t, unresolved %t", key, ok, unresolved[key])
			}
		}
	})
}

// TestReportToStdout: without -o the report goes to stdout as JSON, and
// stderr carries only progress and gate lines.
func TestReportToStdout(t *testing.T) {
	r := runTiny(t, tiny(), 1)
	if r.code != 0 {
		t.Fatalf("exit %d:\n%s", r.code, r.stderr)
	}
	rep := decode(t, []byte(r.stdout))
	if rep.NumCPU != 1 || rep.Metrics["parallel.workers"] != 1 {
		t.Errorf("num_cpu %d, workers %v; want 1 and 1", rep.NumCPU, rep.Metrics["parallel.workers"])
	}
	for _, keys := range sectionKeys {
		for _, key := range keys {
			if _, ok := rep.Metrics[key]; !ok {
				t.Errorf("metric %s missing from the stdout report", key)
			}
		}
	}
	if strings.Contains(r.stderr, "{") {
		t.Errorf("report leaked to stderr:\n%s", r.stderr)
	}
}

// TestGateFailures is the CI contract: a gate the run cannot meet (an
// injected slowdown), a gated metric the run no longer produces, and a
// history sampler over its ceiling each exit 1, with the report still
// written for inspection.
func TestGateFailures(t *testing.T) {
	for name, g := range map[string]gate{
		"weight-slowdown": {metric: "weight.marginal_speedup@10x150", limit: 1e9},
		"core-slowdown":   {metric: "core.construct_speedup@12x80", limit: 1e9},
		"weight-missing":  {metric: "weight.solve_speedup@999x999"},
		"core-missing":    {metric: "core.construct_speedup@999x999"},
		"history":         {metric: "obs.history_sample_ns@12x150", limit: 1, max: true},
	} {
		t.Run(name, func(t *testing.T) {
			r := runTiny(t, tiny(g), 2)
			if r.code != 1 {
				t.Fatalf("exit %d, want 1:\n%s", r.code, r.stderr)
			}
			if !strings.Contains(r.stderr, "FAIL "+g.metric) {
				t.Errorf("no FAIL line for %s:\n%s", g.metric, r.stderr)
			}
			decode(t, []byte(r.stdout))
		})
	}
}

// TestMultiCPUGates: a gate that needs two CPUs prints skip below that and
// is enforced at two or more, for the core and the parallel sections alike.
func TestMultiCPUGates(t *testing.T) {
	for name, metric := range map[string]string{
		"core":     "core.clone_speedup@12x80",
		"parallel": "parallel.ptas_parallel_efficiency@20x400",
	} {
		t.Run(name, func(t *testing.T) {
			g := gate{metric: metric, limit: 1e9, multiCPU: true}
			r := runTiny(t, tiny(g), 1)
			if r.code != 0 || !strings.Contains(r.stderr, "skip "+g.metric) {
				t.Errorf("1 CPU: exit %d, want 0 with a skip line:\n%s", r.code, r.stderr)
			}
			if r := runTiny(t, tiny(g), 2); r.code != 1 || !strings.Contains(r.stderr, "FAIL "+g.metric) {
				t.Errorf("2 CPUs: exit %d, want 1 with a FAIL line:\n%s", r.code, r.stderr)
			}
		})
	}
}

func TestArchiveRefusedBelowTwoCPUs(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_micro.json")
	if r := runTiny(t, tiny(), 1, "-o", out); r.code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", r.code, r.stderr)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("report written from 1 CPU: %v", err)
	}
}

func TestBadFlag(t *testing.T) {
	if r := runTiny(t, tiny(), 2, "-iters", "3"); r.code != 2 {
		t.Errorf("exit %d, want 2", r.code)
	}
}

// TestCheckGates pins the comparison itself: limits are inclusive both
// ways, a missing metric fails, and a skipped gate neither passes nor fails
// on its value.
func TestCheckGates(t *testing.T) {
	m := map[string]float64{"a": 0.5, "b": 2}
	for _, tc := range []struct {
		name   string
		g      gate
		numCPU int
		want   int
	}{
		{"at min", gate{metric: "a", limit: 0.5}, 2, 0},
		{"below min", gate{metric: "a", limit: 0.6}, 2, 1},
		{"at max", gate{metric: "b", limit: 2, max: true}, 2, 0},
		{"above max", gate{metric: "b", limit: 1, max: true}, 2, 1},
		{"missing", gate{metric: "c"}, 2, 1},
		{"skipped below 2 CPUs", gate{metric: "a", limit: 0.6, multiCPU: true}, 1, 0},
		{"enforced at 2 CPUs", gate{metric: "a", limit: 0.6, multiCPU: true}, 2, 1},
	} {
		var w bytes.Buffer
		if got := checkGates([]gate{tc.g}, m, tc.numCPU, &w); got != tc.want {
			t.Errorf("%s: %d failed, want %d (%s)", tc.name, got, tc.want, w.String())
		}
	}
}
