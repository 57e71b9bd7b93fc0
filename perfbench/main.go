// Command perfbench is the repository benchmark. It runs one named workload
// against the scheduling stack, checks every output, and prints its metrics
// by name and unit:
//
//	bash perfbench/run.sh --workload mcs-paper --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run is untraced and reports the end-to-end metrics;
// with --trace 1 it measures an untraced and a traced half and reports the
// per-layer metrics plus the tracing overhead. Lines starting with '#' are
// run metadata and notes; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}. See README.md for
// the workloads and every metric's definition.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"rfidsched/internal/stats"
)

// workload runs one named workload and fills the report.
type workload func(cfg runConfig, rep *report) error

var workloads = map[string]workload{
	"mcs-paper":   runMCSPaper,
	"serve-mix":   runServeMix,
	"serve-burst": runServeBurst,
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    uint64
	measure time.Duration // the whole measured time of the run
	trace   bool
	workers int     // solver workers for the closed MCS loop (= nproc)
	dir     string  // scratch directory inside the checkout
	rate    float64 // serve-mix offered rate, req/s
}

// e2eMetrics are reported by every workload with --trace 0.
var e2eMetrics = []string{"setup_s", "p50_ms", "tail_ms", "slots", "first_slot_tags", "heap_live_mb"}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: mcs-paper, serve-mix or serve-burst")
	seed := flag.Uint64("seed", 2011, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics")
	rate := flag.Float64("rate", mixRate, "serve-mix offered rate in req/s, for rate sweeps; keep the default to compare runs")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *rate <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1, --trace 0|1, --rate > 0\n",
			strings.Join(sortedKeys(workloads), ", "))
		return 2
	}
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := runConfig{
		seed:    *seed,
		measure: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		workers: runtime.NumCPU(),
		dir:     dir,
		rate:    *rate,
	}
	rep := newReport()
	rep.note("workload %s seed %d seconds %d trace %d", *name, *seed, *seconds, *trace)
	rep.note("host nproc %d GOMAXPROCS %d %s %s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
	if err := w(cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.note("gc cycles %d, pauses %.4g ms in total", ms.NumGC, float64(ms.PauseTotalNs)/1e6)
	want := e2eMetrics
	if cfg.trace {
		want = layerMetrics
	}
	if err := rep.print(os.Stdout, want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's notes, metrics and failures.
type report struct {
	notes     []string
	metrics   map[string]metric
	attempted int
	failed    int
	invalid   []string // reasons the run as a whole is not trustworthy
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// fail counts one failed operation and says why.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 20 {
		r.note("FAIL "+format, args...)
	}
}

// invalidate marks the whole run untrustworthy.
func (r *report) invalidate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.invalid = append(r.invalid, msg)
	r.note("INVALID %s", msg)
}

// print writes the notes, one line per metric, and the final JSON line with
// exactly the metrics in want. A wanted metric the workload does not
// exercise is reported as 0 and named in a note.
func (r *report) print(w io.Writer, want []string) error {
	out := make(map[string]metric, len(want))
	var absent []string
	for _, name := range want {
		m, ok := r.metrics[name]
		if !ok {
			m = metric{0, layerUnits[name]}
			absent = append(absent, name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
		out[name] = m
	}
	if len(absent) > 0 {
		r.note("not exercised on this workload (reported as 0): %s", strings.Join(absent, " "))
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	for _, name := range want {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", name, out[name].Value, out[name].Unit)
	}
	if r.attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && len(r.invalid) == 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// timeSetups runs setup reps times (once when traced), each from a
// collected heap, records the median as setup_s, closes every set-up but
// the last and returns it.
func timeSetups[S interface{ close() }](cfg runConfig, rep *report, reps int, setup func() (S, error)) (S, error) {
	if cfg.trace {
		reps = 1
	}
	var last S
	var times []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			last.close()
		}
		runtime.GC()
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return s, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = s
	}
	rep.set("setup_s", stats.Quantile(times, 0.5), "s")
	rep.note("setup_s samples %.4g", times)
	return last, nil
}

// heapLiveMB forces a collection and returns the live heap in MiB.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
