package service

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/durable"
)

// bridgeGolden is every series /metrics publishes from the /v1/stats
// snapshot in TestBridgeOptionalSections, with its family's HELP and TYPE
// lines: each must appear in the exposition exactly as written here.
// Family and series order are not pinned (Prometheus does not read them).
const bridgeGolden = `
# HELP subgraph_uptime_seconds Seconds since the service started.
# TYPE subgraph_uptime_seconds gauge
subgraph_uptime_seconds 1.5
# HELP subgraph_estimates_total Estimations actually computed (cache replays excluded).
# TYPE subgraph_estimates_total counter
subgraph_estimates_total 2
# HELP subgraph_batches_total Batch requests served.
# TYPE subgraph_batches_total counter
subgraph_batches_total 3

# HELP subgraph_precision_requests_total Precision-targeted requests resolved.
# TYPE subgraph_precision_requests_total counter
subgraph_precision_requests_total 11
# HELP subgraph_precision_early_stops_total Precision requests that stopped below their MaxTrials bound.
# TYPE subgraph_precision_early_stops_total counter
subgraph_precision_early_stops_total 12
# HELP subgraph_precision_trials_saved_total Trials adaptive stopping skipped versus the worst-case bound.
# TYPE subgraph_precision_trials_saved_total counter
subgraph_precision_trials_saved_total 13

# HELP subgraph_registry_graphs Graphs currently resident.
# TYPE subgraph_registry_graphs gauge
subgraph_registry_graphs 21
# HELP subgraph_registry_bytes Bytes of resident graph memory.
# TYPE subgraph_registry_bytes gauge
subgraph_registry_bytes 22
# HELP subgraph_registry_loads_total Graph loads into the registry.
# TYPE subgraph_registry_loads_total counter
subgraph_registry_loads_total 24
# HELP subgraph_registry_hits_total Registry lookups answered by a resident graph.
# TYPE subgraph_registry_hits_total counter
subgraph_registry_hits_total 25
# HELP subgraph_registry_evictions_total Graphs evicted to fit the registry budget.
# TYPE subgraph_registry_evictions_total counter
subgraph_registry_evictions_total 26

# HELP subgraph_cache_entries Resident result-cache entries.
# TYPE subgraph_cache_entries gauge
subgraph_cache_entries 31
# HELP subgraph_cache_trials Trials accumulated across resident cache entries.
# TYPE subgraph_cache_trials gauge
subgraph_cache_trials 32
# HELP subgraph_cache_hits_total Result-cache hits.
# TYPE subgraph_cache_hits_total counter
subgraph_cache_hits_total 34
# HELP subgraph_cache_misses_total Result-cache misses.
# TYPE subgraph_cache_misses_total counter
subgraph_cache_misses_total 35
# HELP subgraph_cache_extended_total Cache entries extended in place with freshly computed trials.
# TYPE subgraph_cache_extended_total counter
subgraph_cache_extended_total 36
# HELP subgraph_cache_evictions_total Result-cache evictions.
# TYPE subgraph_cache_evictions_total counter
subgraph_cache_evictions_total 37

# HELP subgraph_scheduler_queued Jobs waiting in the scheduler queue.
# TYPE subgraph_scheduler_queued gauge
subgraph_scheduler_queued 42
# HELP subgraph_scheduler_running Jobs currently running on workers.
# TYPE subgraph_scheduler_running gauge
subgraph_scheduler_running 43
# HELP subgraph_scheduler_submitted_total Jobs submitted to the scheduler.
# TYPE subgraph_scheduler_submitted_total counter
subgraph_scheduler_submitted_total 44
# HELP subgraph_scheduler_completed_total Jobs the scheduler ran to completion.
# TYPE subgraph_scheduler_completed_total counter
subgraph_scheduler_completed_total 45
# HELP subgraph_scheduler_canceled_total Jobs dropped before running (context canceled while queued).
# TYPE subgraph_scheduler_canceled_total counter
subgraph_scheduler_canceled_total 46
# HELP subgraph_scheduler_rejected_total Submissions rejected by the full queue.
# TYPE subgraph_scheduler_rejected_total counter
subgraph_scheduler_rejected_total 47

# HELP subgraph_jobs_submitted_total Jobs registered with the job manager.
# TYPE subgraph_jobs_submitted_total counter
subgraph_jobs_submitted_total 51
# HELP subgraph_jobs_coalesced_total Jobs attached to an identical in-flight computation.
# TYPE subgraph_jobs_coalesced_total counter
subgraph_jobs_coalesced_total 52
# HELP subgraph_jobs_canceled_total Jobs canceled by clients.
# TYPE subgraph_jobs_canceled_total counter
subgraph_jobs_canceled_total 53
# HELP subgraph_jobs_expired_total Finished jobs dropped from retention.
# TYPE subgraph_jobs_expired_total counter
subgraph_jobs_expired_total 54
# HELP subgraph_jobs_active Jobs currently queued or running.
# TYPE subgraph_jobs_active gauge
subgraph_jobs_active 55
# HELP subgraph_jobs_retained Jobs still addressable by id.
# TYPE subgraph_jobs_retained gauge
subgraph_jobs_retained 56

# HELP subgraph_lock_waits_total Mutex acquisitions that blocked (failed the uncontended fast path), by layer.
# TYPE subgraph_lock_waits_total counter
subgraph_lock_waits_total{layer="registry"} 27
subgraph_lock_waits_total{layer="cache"} 38
subgraph_lock_waits_total{layer="jobs"} 57
subgraph_lock_waits_total{layer="singleflight"} 62
# HELP subgraph_lock_wait_seconds Cumulative seconds mutex acquisitions spent blocked, by layer.
# TYPE subgraph_lock_wait_seconds gauge
subgraph_lock_wait_seconds{layer="registry"} 0.028
subgraph_lock_wait_seconds{layer="cache"} 0.039
subgraph_lock_wait_seconds{layer="jobs"} 0.058
subgraph_lock_wait_seconds{layer="singleflight"} 0.063

# HELP subgraph_engine_runs_total Estimations computed, by execution backend.
# TYPE subgraph_engine_runs_total counter
subgraph_engine_runs_total{backend="sim"} 81
subgraph_engine_runs_total{backend="parallel"} 91
# HELP subgraph_engine_load_total Projection-function operations executed, by execution backend.
# TYPE subgraph_engine_load_total counter
subgraph_engine_load_total{backend="sim"} 83
subgraph_engine_load_total{backend="parallel"} 93
# HELP subgraph_engine_messages_total Simulated messages exchanged, by execution backend.
# TYPE subgraph_engine_messages_total counter
subgraph_engine_messages_total{backend="sim"} 85
subgraph_engine_messages_total{backend="parallel"} 95
# HELP subgraph_engine_steals_total Partition tasks stolen, by execution backend.
# TYPE subgraph_engine_steals_total counter
subgraph_engine_steals_total{backend="sim"} 86
subgraph_engine_steals_total{backend="parallel"} 96
# HELP subgraph_engine_supersteps_total Engine supersteps executed, by execution backend.
# TYPE subgraph_engine_supersteps_total counter
subgraph_engine_supersteps_total{backend="sim"} 87
subgraph_engine_supersteps_total{backend="parallel"} 97

# HELP subgraph_dist_node_up Whether the dist worker node's connection is alive.
# TYPE subgraph_dist_node_up gauge
subgraph_dist_node_up{node="0"} 1
subgraph_dist_node_up{node="1"} 0
# HELP subgraph_dist_node_bytes_sent_total Bytes the coordinator sent to the dist worker node.
# TYPE subgraph_dist_node_bytes_sent_total counter
subgraph_dist_node_bytes_sent_total{node="0"} 301
subgraph_dist_node_bytes_sent_total{node="1"} 311
# HELP subgraph_dist_node_bytes_recv_total Bytes the coordinator received from the dist worker node.
# TYPE subgraph_dist_node_bytes_recv_total counter
subgraph_dist_node_bytes_recv_total{node="0"} 302
subgraph_dist_node_bytes_recv_total{node="1"} 312
# HELP subgraph_dist_node_frames_sent_total Protocol frames sent to the dist worker node.
# TYPE subgraph_dist_node_frames_sent_total counter
subgraph_dist_node_frames_sent_total{node="0"} 303
subgraph_dist_node_frames_sent_total{node="1"} 313
# HELP subgraph_dist_node_frames_recv_total Protocol frames received from the dist worker node.
# TYPE subgraph_dist_node_frames_recv_total counter
subgraph_dist_node_frames_recv_total{node="0"} 304
subgraph_dist_node_frames_recv_total{node="1"} 314
# HELP subgraph_dist_node_exchanges_total Superstep completions the dist worker node reported.
# TYPE subgraph_dist_node_exchanges_total counter
subgraph_dist_node_exchanges_total{node="0"} 305
subgraph_dist_node_exchanges_total{node="1"} 315
# HELP subgraph_dist_node_load_total Projection operations executed on the dist worker node.
# TYPE subgraph_dist_node_load_total counter
subgraph_dist_node_load_total{node="0"} 306
subgraph_dist_node_load_total{node="1"} 316
# HELP subgraph_dist_node_jobs_total Finished rank reports from the dist worker node.
# TYPE subgraph_dist_node_jobs_total counter
subgraph_dist_node_jobs_total{node="0"} 307
subgraph_dist_node_jobs_total{node="1"} 317

# HELP subgraph_durable_appends_total Records durably appended to the trial/job log.
# TYPE subgraph_durable_appends_total counter
subgraph_durable_appends_total 101
# HELP subgraph_durable_lag Records accepted by the durable log but not yet written.
# TYPE subgraph_durable_lag gauge
subgraph_durable_lag 102
# HELP subgraph_durable_replayed_runs_total Trial-cache runs replayed from the log at boot.
# TYPE subgraph_durable_replayed_runs_total counter
subgraph_durable_replayed_runs_total 103
# HELP subgraph_durable_replayed_jobs_total Terminal jobs replayed from the log at boot.
# TYPE subgraph_durable_replayed_jobs_total counter
subgraph_durable_replayed_jobs_total 104
# HELP subgraph_durable_truncated_bytes_total Torn or corrupt log-tail bytes dropped during replay.
# TYPE subgraph_durable_truncated_bytes_total counter
subgraph_durable_truncated_bytes_total 105
# HELP subgraph_durable_compactions_total Snapshot+truncate compactions of the durable log.
# TYPE subgraph_durable_compactions_total counter
subgraph_durable_compactions_total 106
# HELP subgraph_durable_fsyncs_total fsync calls issued by the durable log.
# TYPE subgraph_durable_fsyncs_total counter
subgraph_durable_fsyncs_total 107
# HELP subgraph_durable_write_errors_total Failed durable-log writes, encodes, or syncs.
# TYPE subgraph_durable_write_errors_total counter
subgraph_durable_write_errors_total 108
# HELP subgraph_durable_wal_bytes Current size of the durable write-ahead log.
# TYPE subgraph_durable_wal_bytes gauge
subgraph_durable_wal_bytes 109
# HELP subgraph_durable_snapshot_bytes Current size of the durable snapshot file.
# TYPE subgraph_durable_snapshot_bytes gauge
subgraph_durable_snapshot_bytes 110

# HELP subgraph_cluster_members Configured cluster members (self included).
# TYPE subgraph_cluster_members gauge
subgraph_cluster_members 3
# HELP subgraph_cluster_peer_up Whether the peer's last health probe (or forward) succeeded.
# TYPE subgraph_cluster_peer_up gauge
subgraph_cluster_peer_up{peer="b:2"} 1
subgraph_cluster_peer_up{peer="c:3"} 0
# HELP subgraph_cluster_peer_forwards_total Requests forwarded to the peer.
# TYPE subgraph_cluster_peer_forwards_total counter
subgraph_cluster_peer_forwards_total{peer="b:2"} 212
subgraph_cluster_peer_forwards_total{peer="c:3"} 222
# HELP subgraph_cluster_peer_failures_total Transport-level failures forwarding to the peer.
# TYPE subgraph_cluster_peer_failures_total counter
subgraph_cluster_peer_failures_total{peer="b:2"} 213
subgraph_cluster_peer_failures_total{peer="c:3"} 223
# HELP subgraph_cluster_forwards_total Requests proxied to their ring-home replica.
# TYPE subgraph_cluster_forwards_total counter
subgraph_cluster_forwards_total 201
# HELP subgraph_cluster_forward_errors_total Transport-level forward failures (request then ran locally).
# TYPE subgraph_cluster_forward_errors_total counter
subgraph_cluster_forward_errors_total 202
# HELP subgraph_cluster_local_fallbacks_total Non-owned requests served locally because their home was unavailable.
# TYPE subgraph_cluster_local_fallbacks_total counter
subgraph_cluster_local_fallbacks_total 203
# HELP subgraph_cluster_forwarded_served_total Requests served here after another replica forwarded them.
# TYPE subgraph_cluster_forwarded_served_total counter
subgraph_cluster_forwarded_served_total 204
`

// goldenStats gives every field of every /v1/stats section a number of
// its own, so a series that reads the wrong field cannot pass.
func goldenStats() Stats {
	return Stats{
		UptimeSeconds: 1.5, Estimates: 2, Batches: 3,
		Precision: PrecisionStats{Requests: 11, EarlyStops: 12, TrialsSaved: 13},
		Registry: RegistryStats{Graphs: 21, Bytes: 22, BudgetBytes: 23, Loads: 24, Hits: 25, Evictions: 26,
			LockWait: LockWait{Waits: 27, WaitMS: 28}},
		Cache: CacheStats{Entries: 31, Trials: 32, Capacity: 33, Hits: 34, Misses: 35, Extended: 36, Evictions: 37,
			LockWait: LockWait{Waits: 38, WaitMS: 39}},
		Scheduler: SchedulerStats{Workers: 41, Queued: 42, Running: 43, Submitted: 44, Completed: 45, Canceled: 46, Rejected: 47},
		Jobs: JobsStats{Submitted: 51, Coalesced: 52, Canceled: 53, Expired: 54, Active: 55, Retained: 56,
			LockWait:     LockWait{Waits: 57, WaitMS: 58},
			Singleflight: SingleflightStats{Keys: 61, LockWait: LockWait{Waits: 62, WaitMS: 63}}},
		Engine: EngineStats{
			Backend: "sim", Workers: 71,
			Backends: map[string]EngineBackendStats{
				"sim":      {Runs: 81, Workers: 82, TotalLoad: 83, MaxLoad: 84, Messages: 85, Steals: 86, Supersteps: 87},
				"parallel": {Runs: 91, Workers: 92, TotalLoad: 93, MaxLoad: 94, Messages: 95, Steals: 96, Supersteps: 97},
			},
			Dist: []DistNodeStats{
				{Rank: 0, Addr: "w:0", Alive: true, BytesSent: 301, BytesRecv: 302, FramesSent: 303, FramesRecv: 304, Exchanges: 305, Load: 306, Jobs: 307},
				{Rank: 1, Addr: "w:1", BytesSent: 311, BytesRecv: 312, FramesSent: 313, FramesRecv: 314, Exchanges: 315, Load: 316, Jobs: 317},
			},
		},
		Durable: &durable.Stats{
			Appends: 101, Lag: 102, ReplayedRuns: 103, ReplayedJobs: 104, TruncatedBytes: 105,
			Compactions: 106, Fsyncs: 107, WriteErrors: 108, WalBytes: 109, SnapshotBytes: 110,
		},
		Cluster: &ClusterStats{
			Stats: cluster.Stats{
				Self:    "a:1",
				Members: []string{"a:1", "b:2", "c:3"},
				Peers: []cluster.PeerStats{
					{Addr: "b:2", Up: true, Forwards: 212, Failures: 213},
					{Addr: "c:3", Forwards: 222, Failures: 223, LastError: "refused"},
				},
			},
			Forwards: 201, ForwardErrors: 202, LocalFallbacks: 203, ForwardedServed: 204,
		},
	}
}

// bridged renders the /metrics exposition of one Stats snapshot.
func bridged(t *testing.T, st Stats) string {
	t.Helper()
	m := newMetricsRecorder()
	m.bridge(st)
	var text bytes.Buffer
	if err := m.reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	return text.String()
}

// TestBridgeOptionalSections: every /v1/stats section — those every
// service has and those only some deployments have (a durable log, a
// replica ring, dist worker nodes) — reaches /metrics under its family
// names, HELP, TYPE, labels and values: every field is set to a number of
// its own, bridged, rendered, and each golden line read back from the text.
func TestBridgeOptionalSections(t *testing.T) {
	text := bridged(t, goldenStats())
	lines := map[string]bool{}
	for _, l := range strings.Split(text, "\n") {
		lines[l] = true
	}
	for _, want := range strings.Split(bridgeGolden, "\n") {
		if want != "" && !lines[want] {
			t.Errorf("/metrics lacks %q", want)
		}
	}

	// A service with none of the three optional sections exposes none of
	// their families.
	bare := bridged(t, Stats{})
	for _, prefix := range []string{"subgraph_durable_", "subgraph_cluster_", "subgraph_dist_"} {
		if strings.Contains(bare, prefix) {
			t.Errorf("a Stats without the section still exposes %s* families", prefix)
		}
	}
}

// TestEveryStatHasAFamily: every numeric or bool leaf of Stats (and every
// []string, published as its length) names its /metrics family, with its
// HELP, or a label in a metric tag. Only the two latency summaries opt out:
// they re-summarise histograms /metrics exposes in full. The numbers
// /v1/stats reported before /metrics walked it but /metrics dropped are
// families of their own, with the right TYPE.
func TestEveryStatHasAFamily(t *testing.T) {
	var skipped []string
	var visit func(typ reflect.Type, path string)
	visit = func(typ reflect.Type, path string) {
		for k := typ.Kind(); k == reflect.Pointer || k == reflect.Map || k == reflect.Slice; k = typ.Kind() {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct {
			return
		}
		for i := range typ.NumField() {
			f := typ.Field(i)
			tag, k := f.Tag.Get("metric"), f.Type.Kind()
			leaf := k == reflect.Bool || k >= reflect.Int && k <= reflect.Float64 ||
				k == reflect.Slice && f.Type.Elem().Kind() == reflect.String
			switch {
			case tag == "-":
				skipped = append(skipped, path+f.Name)
			case leaf && tag == "":
				t.Errorf("%s%s has no metric tag", path, f.Name)
			case tag != "" && tag[0] != '{' && f.Tag.Get("help") == "":
				t.Errorf("%s%s names family %s without a help tag", path, f.Name, tag)
			case !leaf:
				visit(f.Type, path+f.Name+".")
			}
		}
	}
	visit(reflect.TypeOf(Stats{}), "Stats.")
	if want := []string{"Stats.HTTP", "Stats.TrialLatency"}; !slices.Equal(skipped, want) {
		t.Errorf("fields left out of /metrics: %v, want %v", skipped, want)
	}

	text := bridged(t, goldenStats())
	for _, want := range []string{
		"# TYPE subgraph_cache_capacity gauge", "subgraph_cache_capacity 33",
		"# TYPE subgraph_registry_budget_bytes gauge", "subgraph_registry_budget_bytes 23",
		"# TYPE subgraph_scheduler_workers gauge", "subgraph_scheduler_workers 41",
		"# TYPE subgraph_jobs_singleflight_keys gauge", "subgraph_jobs_singleflight_keys 61",
		"# TYPE subgraph_engine_default_workers gauge", "subgraph_engine_default_workers 71",
		"# TYPE subgraph_engine_workers gauge", `subgraph_engine_workers{backend="sim"} 82`, `subgraph_engine_workers{backend="parallel"} 92`,
		"# TYPE subgraph_engine_max_load gauge", `subgraph_engine_max_load{backend="sim"} 84`, `subgraph_engine_max_load{backend="parallel"} 94`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}
