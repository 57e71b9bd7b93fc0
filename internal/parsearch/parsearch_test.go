package parsearch

import (
	"runtime"
	"sync/atomic"
	"testing"

	"rfidsched/internal/obs"
)

func TestNormalize(t *testing.T) {
	for in, want := range map[int]int{-3: 0, 0: 0, 1: 0, 2: 2, 8: 8} {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestForEachRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, runtime.NumCPU()} {
		for _, tasks := range []int{0, 1, 3, 64, 1000} {
			counts := make([]atomic.Int32, max(tasks, 1))
			ForEach(workers, tasks, func(worker, task int) {
				if worker < 0 || (workers >= 2 && worker >= workers) {
					t.Errorf("workers=%d: worker index %d out of range", workers, worker)
				}
				counts[task].Add(1)
			})
			for i := 0; i < tasks; i++ {
				if n := counts[i].Load(); n != 1 {
					t.Fatalf("workers=%d tasks=%d: task %d ran %d times", workers, tasks, i, n)
				}
			}
		}
	}
}

func TestForEachInlineOrder(t *testing.T) {
	// Below the parallel threshold, tasks must run ascending on worker 0 —
	// the sequential reference order the solvers' merges are pinned to.
	var got []int
	ForEach(1, 5, func(worker, task int) {
		if worker != 0 {
			t.Fatalf("inline run used worker %d", worker)
		}
		got = append(got, task)
	})
	for i, task := range got {
		if task != i {
			t.Fatalf("inline order %v, want ascending", got)
		}
	}
}

func TestMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	EnableMetrics(reg)
	defer EnableMetrics(nil)

	ForEach(2, 10, func(worker, task int) {})
	if got := reg.Snapshot().Counters["parsearch.pool.tasks"]; got != 10 {
		t.Errorf("pool.tasks = %d, want 10", got)
	}

	// Disabled metrics must be a no-op, not a panic.
	EnableMetrics(nil)
	ForEach(2, 3, func(worker, task int) {})
	if got := reg.Snapshot().Counters["parsearch.pool.tasks"]; got != 10 {
		t.Errorf("disabled metrics still recorded: %d", got)
	}
}
