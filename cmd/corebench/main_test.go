package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// runCorebench drives the CLI entry point and returns its exit code plus
// captured output, so the tests exercise exactly what CI runs.
func runCorebench(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// tinyScaleArgs keeps the benchmark fast enough for the unit-test suite;
// ratio quality does not matter here, only the report/gate plumbing and the
// absolute allocation gates (which are scale-independent).
func tinyScaleArgs(extra ...string) []string {
	args := []string{"-scale", "12x80", "-iters", "2"}
	return append(args, extra...)
}

func TestReportWritesGatesAndPassesAllocGates(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")

	// Exit 0 is itself an assertion: the absolute allocation gates (zero
	// steady-state Weight and kernel Push/Pop allocs, bounded pooled
	// clone cycle) are enforced on every run including this one.
	code, _, stderr := runCorebench(t, tinyScaleArgs("-o", base)...)
	if code != 0 {
		t.Fatalf("report run failed (%d): %s", code, stderr)
	}

	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatalf("read report: %v", err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Result.Readers != 12 || rep.Result.Tags != 80 {
		t.Fatalf("unexpected scale in report: %+v", rep.Result)
	}
	for _, key := range []string{
		"newsystem_speedup@12x80", "construct_speedup@12x80", "clone_speedup@12x80",
	} {
		if _, ok := rep.Gates[key]; !ok {
			t.Errorf("gate %s missing from report (have %v)", key, rep.Gates)
		}
	}
	if rep.Result.WeightAllocs != 0 || rep.Result.MarginalAllocs != 0 || rep.Result.AddRemoveAllocs != 0 {
		t.Errorf("steady-state allocations nonzero: %+v", rep.Result)
	}
	if rep.Result.PooledCloneAllocs > pooledCloneAllocBound {
		t.Errorf("pooled clone cycle allocates %.1f/op, want <= %d",
			rep.Result.PooledCloneAllocs, pooledCloneAllocBound)
	}
}

// TestCheckSkipsBelowTwoCPUs pins the auto-skip contract on single-core
// runners; with 2+ CPUs the same invocation must self-check cleanly instead.
func TestCheckSelfPassOrSkip(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	if code, _, stderr := runCorebench(t, tinyScaleArgs("-o", base)...); code != 0 {
		t.Fatalf("report run failed (%d): %s", code, stderr)
	}

	code, stdout, stderr := runCorebench(t, tinyScaleArgs(
		"-check", "-baseline", base, "-tolerance", "0.95",
		"-o", filepath.Join(dir, "fresh.json"))...)
	if code != 0 {
		t.Fatalf("self-check failed (%d):\n%s%s", code, stdout, stderr)
	}
	if runtime.NumCPU() < 2 && !strings.Contains(stdout, "skip") {
		t.Fatalf("expected skip notice on %d CPU(s), got: %s", runtime.NumCPU(), stdout)
	}
}

// TestCheckFailsOnInjectedSlowdown is the CI contract: if the committed
// baseline claims speedups the fresh run cannot reproduce — equivalently, if
// construction or the pooled clone path regresses against an honest
// baseline — the gate must exit non-zero.
func TestCheckFailsOnInjectedSlowdown(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skipf("-check auto-skips on %d CPU(s)", runtime.NumCPU())
	}
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	if code, _, stderr := runCorebench(t, tinyScaleArgs("-o", base)...); code != 0 {
		t.Fatalf("report run failed (%d): %s", code, stderr)
	}
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatalf("read report: %v", err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("decode report: %v", err)
	}
	for key := range rep.Gates {
		rep.Gates[key] *= 1000 // simulate a 1000x regression vs baseline
	}
	doctored := filepath.Join(dir, "doctored.json")
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("encode doctored baseline: %v", err)
	}
	if err := os.WriteFile(doctored, out, 0o644); err != nil {
		t.Fatalf("write doctored baseline: %v", err)
	}

	code, stdout, stderr := runCorebench(t, tinyScaleArgs(
		"-check", "-baseline", doctored, "-tolerance", "0.15",
		"-o", filepath.Join(dir, "fresh.json"))...)
	if code != 1 {
		t.Fatalf("want exit 1 on injected slowdown, got %d:\n%s%s", code, stdout, stderr)
	}
}

// A baseline tracking a metric the fresh run no longer produces (e.g. a
// silently dropped scale) must fail, not pass vacuously.
func TestCheckFailsOnMissingMetric(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skipf("-check auto-skips on %d CPU(s)", runtime.NumCPU())
	}
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	if code, _, stderr := runCorebench(t, tinyScaleArgs("-o", base)...); code != 0 {
		t.Fatalf("report run failed (%d): %s", code, stderr)
	}
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatalf("read report: %v", err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("decode report: %v", err)
	}
	rep.Gates["construct_speedup@999x999"] = 1.0
	doctored := filepath.Join(dir, "doctored.json")
	out, _ := json.Marshal(rep)
	if err := os.WriteFile(doctored, out, 0o644); err != nil {
		t.Fatalf("write doctored baseline: %v", err)
	}

	code, _, _ := runCorebench(t, tinyScaleArgs(
		"-check", "-baseline", doctored, "-tolerance", "0.95",
		"-o", filepath.Join(dir, "fresh.json"))...)
	if code != 1 {
		t.Fatalf("want exit 1 on missing tracked metric, got %d", code)
	}
}

func TestCheckFailsOnMissingBaselineFile(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skipf("-check auto-skips on %d CPU(s)", runtime.NumCPU())
	}
	code, _, stderr := runCorebench(t, tinyScaleArgs(
		"-check", "-baseline", filepath.Join(t.TempDir(), "nope.json"))...)
	if code != 1 {
		t.Fatalf("want exit 1 on missing baseline, got %d (%s)", code, stderr)
	}
}

func TestBadScaleRejected(t *testing.T) {
	code, _, _ := runCorebench(t, "-scale", "banana")
	if code != 2 {
		t.Fatalf("want exit 2 on bad -scale, got %d", code)
	}
}
