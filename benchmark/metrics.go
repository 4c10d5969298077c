package main

import (
	"math"
	"sort"
)

// A metricDef names one number the benchmark reports. The two tables below
// are the single source of the metric set: BENCHMARK.json declares the same
// names, units and directions, and bench_test.go fails when they drift.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Exact marks a count made by the program that repeats bit for bit
	// across runs of one build and seed (README.md, "counts and times").
	Exact bool
}

// endToEnd is what a user of the system sees, reported per workload with
// tracing off. failed_share is reported next to these in the human table
// and the results file but is not a bounded metric: it is 0 on a healthy
// run, and the final result line already carries attempted and failed.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// perLayer is the traced run's ledger, named <module>.<metric>. A layer a
// workload does not exercise reports 0 there (README.md lists which).
var perLayer = []metricDef{
	// core: solver phases (busy seconds per trial) and the paper's load counters.
	{Name: "core.cycleJoin_s", Unit: "s", Better: "lower"},
	{Name: "core.pathJoin_s", Unit: "s", Better: "lower"},
	{Name: "core.leafJoin_s", Unit: "s", Better: "lower"},
	{Name: "core.tableMerge_s", Unit: "s", Better: "lower"},
	{Name: "core.self_s", Unit: "s", Better: "lower"},
	{Name: "core.supersteps", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.total_load", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.max_over_avg_load", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "core.table_entries", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.ps_over_db_load", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "core.pickplan_cold_ms", Unit: "ms", Better: "lower"},
	// table: the flat projection table on keys drawn from the workload's graph.
	{Name: "table.add_compact_ns_per_ent", Unit: "ns/ent", Better: "lower"},
	{Name: "table.get_ns", Unit: "ns", Better: "lower"},
	{Name: "table.allocs_per_compact", Unit: "count", Better: "lower"},
	// engine: superstep delivery under a synthetic producer.
	{Name: "engine.parallel.step_ns_per_msg", Unit: "ns/msg", Better: "lower"},
	{Name: "engine.sim.step_ns_per_msg", Unit: "ns/msg", Better: "lower"},
	{Name: "engine.sim.messages", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.steals", Unit: "count", Better: "lower"},
	// dist: wire volume of one trial over a 2-rank loopback cluster.
	{Name: "dist.graph_ship_bytes", Unit: "bytes", Better: "lower"},
	{Name: "dist.wire_bytes_per_trial", Unit: "bytes", Better: "lower"},
	{Name: "dist.frames_per_trial", Unit: "count", Better: "lower", Exact: true},
	{Name: "dist.trial_s", Unit: "s", Better: "lower"},
	// coloring: drawing colourings and assembling estimates.
	{Name: "coloring.draw_ms", Unit: "ms", Better: "lower"},
	{Name: "coloring.assemble_us", Unit: "us", Better: "lower"},
	{Name: "coloring.trials_to_relerr10", Unit: "count", Better: "lower", Exact: true},
	// gen / graph / decomp: what set-up is made of.
	{Name: "gen.build_s", Unit: "s", Better: "lower"},
	{Name: "graph.fingerprint_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.gob_bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "decomp.enumerate_ms", Unit: "ms", Better: "lower"},
	// service: the serving path, from direct probes, JobTrace and Stats deltas.
	{Name: "service.estimate_hit_us", Unit: "us", Better: "lower"},
	{Name: "service.http_self_us", Unit: "us", Better: "lower"},
	{Name: "service.cache_get_ns", Unit: "ns", Better: "lower"},
	{Name: "service.cache_put_ns", Unit: "ns", Better: "lower"},
	{Name: "service.registry_acquire_ns", Unit: "ns", Better: "lower"},
	{Name: "service.window_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "service.window_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.window_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "service.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "service.cacheStore_us", Unit: "us", Better: "lower"},
	{Name: "service.solver_share", Unit: "ratio", Better: "higher"},
	{Name: "service.lock_wait_ms_per_kreq", Unit: "ms", Better: "lower"},
	{Name: "service.cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "service.coalesce_rate", Unit: "ratio", Better: "higher"},
	// durable: the write-ahead log behind serve-miss.
	{Name: "durable.append_us", Unit: "us", Better: "lower"},
	{Name: "durable.bytes_per_run", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "durable.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "durable.queue_lag_max", Unit: "count", Better: "lower"},
	// cluster: the replica ring and its forward hop.
	{Name: "cluster.ring_owner_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.forward_share", Unit: "ratio", Better: "lower"},
	{Name: "cluster.forward_hop_us", Unit: "us", Better: "lower"},
	// obs / process: what tracing costs and what the process burned per op.
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "obs.attributed_share", Unit: "ratio", Better: "higher"},
	{Name: "proc.cpu_s_per_op", Unit: "s", Better: "lower"},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted; with fewer than 100 samples the 99th is the maximum.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
