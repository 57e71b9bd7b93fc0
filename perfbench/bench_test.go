package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"

	"rfidsched/internal/deploy"
)

// TestTracedRunsMatchUntraced checks that tracing is pure observation: on a
// small instance every algorithm's schedule digest is the same traced and
// untraced, at 1 solver worker and at nproc.
func TestTracedRunsMatchUntraced(t *testing.T) {
	cfg := deploy.Paper(3, 12, 5)
	cfg.NumReaders, cfg.NumTags, cfg.Side = 30, 400, 60
	sys, err := deploy.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dep := deploy.ToDeployment(sys)
	want := map[string][32]byte{}
	for _, workers := range []int{1, runtime.NumCPU()} {
		b := &mcsBench{
			cfg:    runConfig{workers: workers, dir: t.TempDir()},
			rep:    newReport(),
			copies: []*deploy.Deployment{dep},
			cwSeed: 1,
			first:  map[[2]int]mcsRun{},
		}
		for ai, alg := range allAlgs {
			plain, err := b.runOne(dep, ai, false)
			if err != nil {
				t.Fatalf("%s untraced at %d workers: %v", alg, workers, err)
			}
			traced, err := b.runOne(dep, ai, true)
			if err != nil {
				t.Fatalf("%s traced at %d workers: %v", alg, workers, err)
			}
			if traced.solve <= 0 {
				t.Errorf("%s: traced run recorded no solve span", alg)
			}
			if plain.digest != traced.digest {
				t.Errorf("%s at %d workers: traced schedule differs from untraced", alg, workers)
			}
			if d, ok := want[alg]; ok && d != plain.digest {
				t.Errorf("%s: schedule at %d workers differs from 1 worker", alg, workers)
			}
			want[alg] = plain.digest
		}
	}
}

// TestReportPrintsExactlyTheWantedMetrics checks the output contract: the
// last line is one JSON object whose metrics are exactly the wanted names,
// absent ones as 0.
func TestReportPrintsExactlyTheWantedMetrics(t *testing.T) {
	rep := newReport()
	rep.attempted = 3
	rep.set("p50_ms", 1.5, "ms")
	rep.set("not_wanted", 7, "count")
	var out bytes.Buffer
	if err := rep.print(&out, e2eMetrics); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]metric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if !last.Correct || last.Attempted != 3 || len(last.Metrics) != len(e2eMetrics) {
		t.Fatalf("got %+v", last)
	}
	if last.Metrics["p50_ms"].Value != 1.5 || last.Metrics["slots"].Unit != "count" {
		t.Errorf("metrics %+v", last.Metrics)
	}
}

// TestBenchmarkJSONMatchesMetrics checks that BENCHMARK.json at the
// repository root names exactly the metrics this command prints, with the
// same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		names  []string
	}{{spec.EndToEnd, e2eMetrics}, {spec.PerLayer, layerMetrics}} {
		if len(c.listed) != len(c.names) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the command prints %d", len(c.listed), len(c.names))
		}
		for i, m := range c.listed {
			if m.Name != c.names[i] || m.Unit != layerUnits[m.Name] {
				t.Errorf("BENCHMARK.json metric %d is %s [%s], the command prints %s [%s]",
					i, m.Name, m.Unit, c.names[i], layerUnits[c.names[i]])
			}
		}
	}
}
