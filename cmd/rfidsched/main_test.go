package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"rfidsched/internal/checkpoint"
	"rfidsched/internal/core"
	"rfidsched/internal/deploy"
	"rfidsched/internal/graph"
	"rfidsched/internal/model"
	"rfidsched/internal/obs"
)

// writeDeployment creates a small deployment file for CLI tests.
func writeDeployment(t *testing.T) string {
	t.Helper()
	sys, err := deploy.Generate(deploy.Config{
		Seed: 3, NumReaders: 12, NumTags: 150, Side: 50,
		LambdaR: 10, LambdaSmallR: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/dep.json"
	if err := deploy.ToDeployment(sys).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSchedAllAlgorithms(t *testing.T) {
	path := writeDeployment(t)
	for _, alg := range []string{"alg1", "alg2", "alg3", "ghc", "colorwave", "random", "exact"} {
		var out, errBuf bytes.Buffer
		code := run([]string{"-in", path, "-alg", alg}, &out, &errBuf)
		if code != 0 {
			t.Errorf("%s: exit %d: %s", alg, code, errBuf.String())
			continue
		}
		if !strings.Contains(out.String(), "schedule:") {
			t.Errorf("%s: missing schedule line:\n%s", alg, out.String())
		}
	}
}

func TestSchedVerifyFlag(t *testing.T) {
	path := writeDeployment(t)
	var out, errBuf bytes.Buffer
	code := run([]string{"-in", path, "-alg", "alg2", "-verify"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "verified:") {
		t.Errorf("missing verification line:\n%s", out.String())
	}
}

func TestSchedVerboseSlots(t *testing.T) {
	path := writeDeployment(t)
	var out, errBuf bytes.Buffer
	code := run([]string{"-in", path, "-alg", "alg2", "-v"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "slot   0:") {
		t.Errorf("missing per-slot lines:\n%s", out.String())
	}
}

func TestSchedMissingInput(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run(nil, &out, &errBuf); code != 2 {
		t.Errorf("exit %d without -in", code)
	}
}

func TestSchedBadFile(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-in", "/nonexistent.json"}, &out, &errBuf); code != 1 {
		t.Errorf("exit %d for missing file", code)
	}
}

func TestSchedUnknownAlgorithm(t *testing.T) {
	path := writeDeployment(t)
	var out, errBuf bytes.Buffer
	if code := run([]string{"-in", path, "-alg", "quantum"}, &out, &errBuf); code != 2 {
		t.Errorf("exit %d for unknown algorithm", code)
	}
}

func TestSchedCheckpointResume(t *testing.T) {
	path := writeDeployment(t)
	ckpt := t.TempDir() + "/run.ckpt"

	var out1, err1 bytes.Buffer
	if code := run([]string{"-in", path, "-alg", "colorwave", "-checkpoint", ckpt}, &out1, &err1); code != 0 {
		t.Fatalf("checkpointed run: exit %d: %s", code, err1.String())
	}

	// Simulate a crash: keep roughly half the stream, tearing the last
	// surviving line, then resume and demand the identical summary.
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	var out2, err2 bytes.Buffer
	if code := run([]string{"-in", path, "-alg", "colorwave", "-checkpoint", ckpt, "-resume", "-verify"}, &out2, &err2); code != 0 {
		t.Fatalf("resumed run: exit %d: %s", code, err2.String())
	}
	line := func(b *bytes.Buffer) string {
		for _, l := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(l, "schedule:") {
				return l
			}
		}
		return ""
	}
	if line(&out2) == "" || line(&out1) != line(&out2) {
		t.Errorf("resumed schedule differs:\n  first: %s\n resume: %s", line(&out1), line(&out2))
	}
}

func TestSchedDeadlineFlagsStillComplete(t *testing.T) {
	path := writeDeployment(t)
	var out, errBuf bytes.Buffer
	if code := run([]string{"-in", path, "-alg", "alg1", "-slot-polls", "1", "-verify"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "anytime slots") {
		t.Errorf("starved poll budget reported no anytime slots:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "verified:") {
		t.Errorf("budgeted schedule failed verification:\n%s", out.String())
	}
}

func TestSchedFlagValidation(t *testing.T) {
	path := writeDeployment(t)
	var out, errBuf bytes.Buffer
	if code := run([]string{"-in", path, "-resume"}, &out, &errBuf); code != 2 {
		t.Errorf("exit %d for -resume without -checkpoint", code)
	}
	if code := run([]string{"-in", path, "-supervise", "2"}, &out, &errBuf); code != 2 {
		t.Errorf("exit %d for -supervise without -checkpoint", code)
	}
}

// panicOnce panics at a chosen slot on its first run, then behaves.
type panicOnce struct {
	inner model.OneShotScheduler
	calls *int
	at    int
}

func (p panicOnce) Name() string { return p.inner.Name() }

func (p panicOnce) OneShot(sys *model.System) ([]int, error) {
	*p.calls++
	if *p.calls == p.at {
		panic("injected crash")
	}
	return p.inner.OneShot(sys)
}

func TestSupervisorRestartsFromCheckpoint(t *testing.T) {
	dep, err := deploy.LoadFile(writeDeployment(t))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := dep.ToSystem()
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromSystem(ref)

	want, err := core.RunMCS(ref.Clone(), core.NewGrowth(g, 1.25), core.MCSOptions{RecordSlots: true})
	if err != nil {
		t.Fatal(err)
	}
	if want.Size < 2 {
		t.Fatalf("degenerate reference run (%d slots)", want.Size)
	}

	calls := 0
	var errBuf bytes.Buffer
	sup := supervisor{
		newSys: dep.ToSystem,
		newSched: func() (model.OneShotScheduler, error) {
			return panicOnce{inner: core.NewGrowth(g, 1.25), calls: &calls, at: 2}, nil
		},
		opts:     core.MCSOptions{RecordSlots: true},
		ckptPath: t.TempDir() + "/sup.ckpt",
		restarts: 2,
		stderr:   &errBuf,
	}
	got, err := sup.run()
	if err != nil {
		t.Fatalf("supervised run: %v (stderr: %s)", err, errBuf.String())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("supervised result diverged:\n got %+v\nwant %+v", got, want)
	}
	if !strings.Contains(errBuf.String(), "restarting from") {
		t.Errorf("supervisor restarted silently:\n%s", errBuf.String())
	}
}

func TestSupervisorGivesUpAfterBudget(t *testing.T) {
	dep, err := deploy.LoadFile(writeDeployment(t))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	var errBuf bytes.Buffer
	sup := supervisor{
		newSys: dep.ToSystem,
		newSched: func() (model.OneShotScheduler, error) {
			// Panics on EVERY first slot of every attempt.
			calls = 0
			sys, _ := dep.ToSystem()
			g := graph.FromSystem(sys)
			return panicOnce{inner: core.NewGrowth(g, 1.25), calls: &calls, at: 1}, nil
		},
		opts:     core.MCSOptions{},
		ckptPath: t.TempDir() + "/sup.ckpt",
		restarts: 1,
		stderr:   &errBuf,
	}
	if _, err := sup.run(); err == nil {
		t.Fatal("supervisor succeeded through a permanent crash")
	} else if !strings.Contains(err.Error(), "panicked") {
		t.Errorf("give-up error does not surface the panic: %v", err)
	}
}

// TestSchedHTTPServesTelemetry drives the full -http path: start a run with
// a lingering telemetry server, scrape every endpoint while it is up, and
// check the exposition carries the live run's metrics.
func TestSchedHTTPServesTelemetry(t *testing.T) {
	path := writeDeployment(t)

	// stderr goes through a pipe so the test can read the bound address the
	// moment the server prints it, while the run continues concurrently.
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	done := make(chan int, 1)
	go func() {
		code := run([]string{"-in", path, "-alg", "alg2",
			"-http", "127.0.0.1:0", "-http-linger", "2s"}, &out, pw)
		pw.Close()
		done <- code
	}()

	sc := bufio.NewScanner(pr)
	var addr string
	for sc.Scan() {
		if _, rest, ok := strings.Cut(sc.Text(), "listening on http://"); ok {
			addr = strings.TrimSuffix(rest, "/")
			break
		}
	}
	if addr == "" {
		t.Fatalf("server address never printed (exit %d)", <-done)
	}
	go io.Copy(io.Discard, pr) // keep draining so the run never blocks on stderr

	get := func(p string) (int, string) {
		resp, err := http.Get("http://" + addr + p)
		if err != nil {
			t.Fatalf("GET %s: %v", p, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz: %d %q", code, body)
	}
	// The address is printed before the run starts, so on a loaded host the
	// first scrape can beat the first slot. Wait for the run to finish: the
	// server stays up for the whole run plus the linger window, and from
	// then on the gauges hold their final values.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if _, body := get("/debug/flight"); strings.Contains(body, "run_completed") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never completed while the telemetry server was up")
		}
	}
	if code, body := get("/metrics"); code != 200 ||
		!strings.Contains(body, "mcs_slot_current") ||
		!strings.Contains(body, "span_solve_seconds_count") {
		t.Errorf("/metrics missing live series (status %d):\n%s", code, body)
	}
	if code, body := get("/runs"); code != 200 || !strings.Contains(body, "tags_read") {
		t.Errorf("/runs: %d %q", code, body)
	}
	if code, body := get("/debug/flight"); code != 200 || !strings.Contains(body, "slot_planned") {
		t.Errorf("/debug/flight: %d %q", code, body)
	}

	if code := <-done; code != 0 {
		t.Fatalf("run exited %d", code)
	}
	if !strings.Contains(out.String(), "schedule:") {
		t.Errorf("missing schedule line:\n%s", out.String())
	}
}

// TestSupervisorArchivesFlightRecord is the crash post-mortem contract: a
// panicking attempt leaves a per-attempt flight-record JSONL whose final
// event lines up with the checkpoint's last durable slot.
func TestSupervisorArchivesFlightRecord(t *testing.T) {
	dep, err := deploy.LoadFile(writeDeployment(t))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := dep.ToSystem()
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromSystem(sys)

	dir := t.TempDir()
	ckpt := dir + "/sup.ckpt"
	flight := obs.NewFlightRecorder(64)
	calls := 0
	var errBuf bytes.Buffer
	sup := supervisor{
		newSys: dep.ToSystem,
		newSched: func() (model.OneShotScheduler, error) {
			return panicOnce{inner: core.NewGrowth(g, 1.25), calls: &calls, at: 3}, nil
		},
		opts:       core.MCSOptions{Tracer: flight},
		ckptPath:   ckpt,
		restarts:   2,
		stderr:     &errBuf,
		flight:     flight,
		flightBase: ckpt + ".flight",
	}
	if _, err := sup.run(); err != nil {
		t.Fatalf("supervised run: %v (stderr: %s)", err, errBuf.String())
	}

	raw, err := os.ReadFile(ckpt + ".flight.attempt0.jsonl")
	if err != nil {
		t.Fatalf("crash left no flight record: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("flight record is empty")
	}
	var last obs.Event
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("flight record tail is not an event: %v", err)
	}

	// The crash hit slot 2's solve, so the last durable checkpoint slot is 1
	// — and the flight record's final event must be exactly its write.
	st, err := checkpoint.LoadMCS(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	// The resumed attempt rewrote the stream to completion; the archive was
	// taken at crash time, so compare against the crash-time tail instead:
	// the final archived event is the checkpoint write of the last slot the
	// crashed attempt made durable.
	if last.Type != obs.CheckpointWritten {
		t.Fatalf("flight tail is %q, want %q", last.Type, obs.CheckpointWritten)
	}
	if wantLast := 1; last.T != wantLast {
		t.Errorf("flight tail records slot %d, want %d (crash at slot 2)", last.T, wantLast)
	}
	if len(st.Slots) == 0 || st.Slots[len(st.Slots)-1].Slot < last.T {
		t.Errorf("final checkpoint (%d slots) lost the slot the flight tail proves durable (%d)",
			len(st.Slots), last.T)
	}
}

// TestSchedFlightDisabled: -flight 0 must switch the recorder off without
// disturbing the run.
func TestSchedFlightDisabled(t *testing.T) {
	path := writeDeployment(t)
	var out, errBuf bytes.Buffer
	if code := run([]string{"-in", path, "-alg", "alg2", "-flight", "0"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "schedule:") {
		t.Errorf("missing schedule line:\n%s", out.String())
	}
}
