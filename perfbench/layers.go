package main

// The per-layer metrics every --trace 1 run reports, in print order, with
// their units. Each workload measures every layer: mcs-paper sends its
// deployments through a serve probe, and the serve workloads run a solver
// probe on their cold deployments. Latency per request class is printed as
// notes (serve.class.<class>.p50_ms), since the classes differ by workload.
var layerMetrics, layerUnits = layerTable()

var (
	allAlgs    = []string{"alg1", "alg2", "alg3", "ghc", "colorwave"}
	paperAlgs  = []string{"alg1", "alg2", "alg3"}
	phases     = []string{"decode", "cache", "queue", "solve", "verify", "encode", "wait"}
	classNames = []string{"hot", "inline", "cold", "deadline", "malformed", "coalesce"}
)

func layerTable() ([]string, map[string]string) {
	var names []string
	units := map[string]string{
		"setup_s": "s", "p50_ms": "ms", "tail_ms": "ms",
		"slots": "count", "first_slot_tags": "count", "heap_live_mb": "MiB",
	}
	add := func(name, unit string) {
		names = append(names, name)
		units[name] = unit
	}
	add("deploy.to_system_ms", "ms")
	add("graph.from_system_ms", "ms")
	for _, alg := range allAlgs {
		add("core."+alg+".solve_ms", "ms")
		add("core."+alg+".first_slot_ms", "ms")
		add("core."+alg+".slots", "count")
	}
	add("core.alg1.evals", "count")
	add("core.alg2.max_radius", "count")
	add("core.alg2.coordinators", "count")
	add("core.alg3.rounds", "count")
	add("core.alg3.messages", "count")
	add("parsearch.tasks", "count")
	add("parsearch.subtree_nodes_mean", "count")
	add("core.driver_ms", "ms")
	add("checkpoint.write_ms", "ms")
	add("checkpoint.bytes", "bytes")
	add("checkpoint.records", "count")
	add("verify.schedule_ms", "ms")
	add("bench.pass_ms", "ms")
	add("bench.unattributed_share", "ratio")
	for _, alg := range paperAlgs {
		add("mcs_"+alg+"_s", "s")
	}
	for _, p := range phases {
		add("serve."+p+".p50_ms", "ms")
		add("serve."+p+".p99_ms", "ms")
	}
	add("serve.cache.hit_ratio", "ratio")
	add("serve.solves", "count")
	add("serve.singleflight.merged", "count")
	add("serve.rejected.queue_full", "count")
	add("serve.queue.depth_max", "count")
	add("serve.solve_useful_ratio", "ratio")
	add("bench.gen_lag_p99_ms", "ms")
	add("bench.inflight_end", "count")
	add("bench.fail_ratio", "ratio")
	add("bench.slo_miss_ratio", "ratio")
	add("bench.trace_overhead_pct", "%")
	return names, units
}
