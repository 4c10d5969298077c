package service

import (
	"strconv"
	"sync"

	"repro/internal/coloring"
	"repro/internal/obs"
)

// Metric family names. The request and trial latency families are the
// contract the load generator and smoke test scrape for; renaming them is
// a wire-format change.
const (
	metricRequestsTotal  = "subgraph_requests_total"
	metricRequestSeconds = "subgraph_request_seconds"
	metricTrialSeconds   = "subgraph_trial_seconds"
	metricPhaseSeconds   = "subgraph_phase_seconds"
	metricQueueWait      = "subgraph_queue_wait_seconds"
	metricSSEFlush       = "subgraph_sse_flush_seconds"
)

// Trace span names recorded by the service layer itself (the solver's
// phase names live in core). queueWait and the cache spans are serial
// sections of a job's timeline; sseFlush is a sink-only observation (the
// stream outlives the job, so it must not count against its wall time).
const (
	spanQueueWait   = "queueWait"
	spanCacheLookup = "cacheLookup"
	spanCacheStore  = "cacheStore"
	spanCacheReplay = "cacheReplay"
)

// metricsRecorder owns the service's obs.Registry and caches the series
// handles the hot paths touch, so recording a request or a solver phase
// is two map lookups under a small mutex at worst and usually none (the
// handle cache hits). Cumulative counters that already live in the
// layers' own stats structs (cache hits, lock waits, engine load…) are
// not double-tracked: bridge copies them into counter series at scrape
// time, so /metrics and /v1/stats can never disagree.
type metricsRecorder struct {
	reg *obs.Registry

	queueWait *obs.Histogram
	sseFlush  *obs.Histogram

	mu       sync.Mutex
	requests map[requestKey]*obs.Counter
	requestH map[string]*obs.Histogram
	trialH   map[string]*obs.Histogram
	phaseH   map[phaseKey]*obs.Histogram
}

type requestKey struct {
	endpoint string
	code     int
}

type phaseKey struct {
	phase   string
	backend string
}

// phaseBuckets resolve single supersteps on small graphs: they start at
// 10µs where the request-level buckets start at 100µs.
func phaseBuckets() []float64 { return obs.ExponentialBuckets(1e-5, 2, 18) }

func newMetricsRecorder() *metricsRecorder {
	reg := obs.NewRegistry()
	m := &metricsRecorder{
		reg: reg,
		queueWait: reg.Histogram(metricQueueWait,
			"Time jobs spent queued before a worker picked their flight up.",
			obs.DefSecondsBuckets(), nil),
		sseFlush: reg.Histogram(metricSSEFlush,
			"Per-event write+flush time of the SSE progress fan-out.",
			phaseBuckets(), nil),
		requests: make(map[requestKey]*obs.Counter),
		requestH: make(map[string]*obs.Histogram),
		trialH:   make(map[string]*obs.Histogram),
		phaseH:   make(map[phaseKey]*obs.Histogram),
	}
	return m
}

// observeRequest records one finished HTTP request.
func (m *metricsRecorder) observeRequest(endpoint string, code int, seconds float64) {
	m.mu.Lock()
	rk := requestKey{endpoint: endpoint, code: code}
	c, ok := m.requests[rk]
	if !ok {
		c = m.reg.Counter(metricRequestsTotal,
			"HTTP requests served, by route pattern and status code.",
			obs.Labels{"endpoint": endpoint, "code": strconv.Itoa(code)})
		m.requests[rk] = c
	}
	h, ok := m.requestH[endpoint]
	if !ok {
		h = m.reg.Histogram(metricRequestSeconds,
			"HTTP request latency, by route pattern.",
			obs.DefSecondsBuckets(), obs.Labels{"endpoint": endpoint})
		m.requestH[endpoint] = h
	}
	m.mu.Unlock()
	c.Inc()
	h.Observe(seconds)
}

func (m *metricsRecorder) trialHist(backend string) *obs.Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.trialH[backend]
	if !ok {
		h = m.reg.Histogram(metricTrialSeconds,
			"Per-trial solve time (one colorful count), by execution backend.",
			obs.DefSecondsBuckets(), obs.Labels{"backend": backend})
		m.trialH[backend] = h
	}
	return h
}

func (m *metricsRecorder) phaseHist(phase, backend string) *obs.Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	pk := phaseKey{phase: phase, backend: backend}
	h, ok := m.phaseH[pk]
	if !ok {
		h = m.reg.Histogram(metricPhaseSeconds,
			"Per-span solver and service phase time (path/cycle/per-vertex joins, table merges, cache lookup/store), by phase and backend.",
			phaseBuckets(), obs.Labels{"phase": phase, "backend": backend})
		m.phaseH[pk] = h
	}
	return h
}

// traceSink returns the per-flight trace sink: every span and observation
// a job records — from the HTTP layer down to individual solver
// supersteps — lands in the aggregate histograms live, so /metrics
// reflects a long job while it runs, not only after it finishes.
func (m *metricsRecorder) traceSink(backend string) func(name string, seconds float64) {
	return func(name string, seconds float64) {
		switch name {
		case coloring.TrialMeasurement:
			m.trialHist(backend).Observe(seconds)
		case spanQueueWait:
			m.queueWait.Observe(seconds)
		default:
			m.phaseHist(name, backend).Observe(seconds)
		}
	}
}

// LatencySummary is the /v1/stats rendering of one latency histogram:
// count, mean, and interpolated p50/p95/p99 in milliseconds.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"meanMs"`
	P50Ms  float64 `json:"p50Ms"`
	P95Ms  float64 `json:"p95Ms"`
	P99Ms  float64 `json:"p99Ms"`
}

func summarize(snap obs.HistogramSnapshot) LatencySummary {
	return LatencySummary{
		Count:  snap.Count,
		MeanMs: snap.Mean() * 1e3,
		P50Ms:  snap.Quantile(0.50) * 1e3,
		P95Ms:  snap.Quantile(0.95) * 1e3,
		P99Ms:  snap.Quantile(0.99) * 1e3,
	}
}

// httpSummary snapshots per-endpoint request latency for /v1/stats.
func (m *metricsRecorder) httpSummary() map[string]LatencySummary {
	m.mu.Lock()
	hs := make(map[string]*obs.Histogram, len(m.requestH))
	for ep, h := range m.requestH {
		hs[ep] = h
	}
	m.mu.Unlock()
	out := make(map[string]LatencySummary, len(hs))
	for ep, h := range hs {
		out[ep] = summarize(h.Snapshot())
	}
	return out
}

// trialSummary snapshots per-backend trial latency for /v1/stats.
func (m *metricsRecorder) trialSummary() map[string]LatencySummary {
	m.mu.Lock()
	hs := make(map[string]*obs.Histogram, len(m.trialH))
	for b, h := range m.trialH {
		hs[b] = h
	}
	m.mu.Unlock()
	out := make(map[string]LatencySummary, len(hs))
	for b, h := range hs {
		out[b] = summarize(h.Snapshot())
	}
	return out
}

// bridge copies the cumulative counters of every service layer into
// scrape-time metric series. The layers' own stats structs stay the
// single source of truth; /metrics is a projection of the same snapshot
// /v1/stats serves, taken immediately before rendering.
func (m *metricsRecorder) bridge(st Stats) {
	reg := m.reg
	gauge := func(name, help string, labels obs.Labels, v float64) {
		reg.Gauge(name, help, labels).Set(v)
	}
	counter := func(name, help string, labels obs.Labels, v uint64) {
		reg.Counter(name, help, labels).Set(v)
	}

	gauge("subgraph_uptime_seconds", "Seconds since the service started.", nil, st.UptimeSeconds)
	counter("subgraph_estimates_total", "Estimations actually computed (cache replays excluded).", nil, st.Estimates)
	counter("subgraph_batches_total", "Batch requests served.", nil, st.Batches)

	counter("subgraph_precision_requests_total", "Precision-targeted requests resolved.", nil, st.Precision.Requests)
	counter("subgraph_precision_early_stops_total", "Precision requests that stopped below their MaxTrials bound.", nil, st.Precision.EarlyStops)
	counter("subgraph_precision_trials_saved_total", "Trials adaptive stopping skipped versus the worst-case bound.", nil, st.Precision.TrialsSaved)

	counter("subgraph_cache_hits_total", "Result-cache hits.", nil, st.Cache.Hits)
	counter("subgraph_cache_misses_total", "Result-cache misses.", nil, st.Cache.Misses)
	counter("subgraph_cache_extended_total", "Cache entries extended in place with freshly computed trials.", nil, st.Cache.Extended)
	counter("subgraph_cache_evictions_total", "Result-cache evictions.", nil, st.Cache.Evictions)
	gauge("subgraph_cache_entries", "Resident result-cache entries.", nil, float64(st.Cache.Entries))
	gauge("subgraph_cache_trials", "Trials accumulated across resident cache entries.", nil, float64(st.Cache.Trials))

	counter("subgraph_registry_loads_total", "Graph loads into the registry.", nil, st.Registry.Loads)
	counter("subgraph_registry_hits_total", "Registry lookups answered by a resident graph.", nil, st.Registry.Hits)
	counter("subgraph_registry_evictions_total", "Graphs evicted to fit the registry budget.", nil, st.Registry.Evictions)
	gauge("subgraph_registry_graphs", "Graphs currently resident.", nil, float64(st.Registry.Graphs))
	gauge("subgraph_registry_bytes", "Bytes of resident graph memory.", nil, float64(st.Registry.Bytes))

	gauge("subgraph_scheduler_queued", "Jobs waiting in the scheduler queue.", nil, float64(st.Scheduler.Queued))
	gauge("subgraph_scheduler_running", "Jobs currently running on workers.", nil, float64(st.Scheduler.Running))
	counter("subgraph_scheduler_submitted_total", "Jobs submitted to the scheduler.", nil, st.Scheduler.Submitted)
	counter("subgraph_scheduler_completed_total", "Jobs the scheduler ran to completion.", nil, st.Scheduler.Completed)
	counter("subgraph_scheduler_canceled_total", "Jobs dropped before running (context canceled while queued).", nil, st.Scheduler.Canceled)
	counter("subgraph_scheduler_rejected_total", "Submissions rejected by the full queue.", nil, st.Scheduler.Rejected)

	counter("subgraph_jobs_submitted_total", "Jobs registered with the job manager.", nil, st.Jobs.Submitted)
	counter("subgraph_jobs_coalesced_total", "Jobs attached to an identical in-flight computation.", nil, st.Jobs.Coalesced)
	counter("subgraph_jobs_canceled_total", "Jobs canceled by clients.", nil, st.Jobs.Canceled)
	counter("subgraph_jobs_expired_total", "Finished jobs dropped from retention.", nil, st.Jobs.Expired)
	gauge("subgraph_jobs_active", "Jobs currently queued or running.", nil, float64(st.Jobs.Active))
	gauge("subgraph_jobs_retained", "Jobs still addressable by id.", nil, float64(st.Jobs.Retained))

	// Lock-wait rollups, one series per locked layer: the count of
	// acquisitions that blocked (failed the TryLock fast path) and the
	// total time they spent blocked — uncontended acquisitions are free
	// and uncounted. Same numbers as the lockWaits/lockWaitMs fields in
	// /v1/stats, converted to seconds for Prometheus convention.
	lockHelpN := "Mutex acquisitions that blocked (failed the uncontended fast path), by layer."
	lockHelpS := "Cumulative seconds mutex acquisitions spent blocked, by layer."
	lw := func(layer string, w LockWait) {
		counter("subgraph_lock_waits_total", lockHelpN, obs.Labels{"layer": layer}, w.Waits)
		gauge("subgraph_lock_wait_seconds", lockHelpS, obs.Labels{"layer": layer}, w.WaitMS/1e3)
	}
	lw("registry", st.Registry.LockWait)
	lw("cache", st.Cache.LockWait)
	lw("jobs", st.Jobs.LockWait)
	lw("singleflight", st.Jobs.Singleflight.LockWait)

	// Durability layer (absent on in-memory services): append volume,
	// queue lag, replay and compaction counters, file sizes.
	if d := st.Durable; d != nil {
		counter("subgraph_durable_appends_total", "Records durably appended to the trial/job log.", nil, d.Appends)
		gauge("subgraph_durable_lag", "Records accepted by the durable log but not yet written.", nil, float64(d.Lag))
		counter("subgraph_durable_replayed_runs_total", "Trial-cache runs replayed from the log at boot.", nil, d.ReplayedRuns)
		counter("subgraph_durable_replayed_jobs_total", "Terminal jobs replayed from the log at boot.", nil, d.ReplayedJobs)
		counter("subgraph_durable_truncated_bytes_total", "Torn or corrupt log-tail bytes dropped during replay.", nil, uint64(d.TruncatedBytes))
		counter("subgraph_durable_compactions_total", "Snapshot+truncate compactions of the durable log.", nil, d.Compactions)
		counter("subgraph_durable_fsyncs_total", "fsync calls issued by the durable log.", nil, d.Fsyncs)
		counter("subgraph_durable_write_errors_total", "Failed durable-log writes, encodes, or syncs.", nil, d.WriteErrors)
		gauge("subgraph_durable_wal_bytes", "Current size of the durable write-ahead log.", nil, float64(d.WalBytes))
		gauge("subgraph_durable_snapshot_bytes", "Current size of the durable snapshot file.", nil, float64(d.SnapshotBytes))
	}

	// Cluster serving tier (absent in single-replica mode): forwarding
	// volume, degradation fallbacks, handoff traffic, and per-peer
	// health/breaker state.
	if cl := st.Cluster; cl != nil {
		counter("subgraph_cluster_forwards_total", "Requests proxied to their ring-home replica.", nil, cl.Forwards)
		counter("subgraph_cluster_forward_errors_total", "Transport-level forward failures (request then ran locally).", nil, cl.ForwardErrors)
		counter("subgraph_cluster_local_fallbacks_total", "Non-owned requests served locally because their home was unavailable.", nil, cl.LocalFallbacks)
		counter("subgraph_cluster_forwarded_served_total", "Requests served here after another replica forwarded them.", nil, cl.ForwardedServed)
		counter("subgraph_cluster_handoff_exported_total", "Trial runs pushed to their new home during rebalancing.", nil, cl.HandoffExported)
		counter("subgraph_cluster_handoff_imported_total", "Trial runs received from a peer during rebalancing.", nil, cl.HandoffImported)
		gauge("subgraph_cluster_members", "Configured cluster members (self included).", nil, float64(len(cl.Members)))
		handoff := 0.0
		if cl.HandoffActive {
			handoff = 1
		}
		gauge("subgraph_cluster_handoff_active", "Whether a handoff replay is importing runs right now (readyz is 503).", nil, handoff)
		for _, p := range cl.Peers {
			l := obs.Labels{"peer": p.Addr}
			up := 0.0
			if p.Up {
				up = 1
			}
			gauge("subgraph_cluster_peer_up", "Whether the peer's last readiness probe (or forward) succeeded.", l, up)
			open := 0.0
			if p.BreakerOpen {
				open = 1
			}
			gauge("subgraph_cluster_peer_breaker_open", "Whether the peer's circuit breaker is open (forwards fail fast to local execution).", l, open)
			counter("subgraph_cluster_peer_breaker_trips_total", "Times the peer's circuit breaker opened.", l, p.Trips)
			counter("subgraph_cluster_peer_forwards_total", "Requests forwarded to the peer.", l, p.Forwards)
			counter("subgraph_cluster_peer_failures_total", "Transport-level failures forwarding to the peer.", l, p.Failures)
		}
	}

	for name, b := range st.Engine.Backends {
		l := obs.Labels{"backend": name}
		counter("subgraph_engine_runs_total", "Estimations computed, by execution backend.", l, b.Runs)
		counter("subgraph_engine_supersteps_total", "Engine supersteps executed, by execution backend.", l, uint64(b.Supersteps))
		counter("subgraph_engine_load_total", "Projection-function operations executed, by execution backend.", l, uint64(b.TotalLoad))
		counter("subgraph_engine_messages_total", "Simulated messages exchanged, by execution backend.", l, uint64(b.Messages))
		counter("subgraph_engine_steals_total", "Partition tasks stolen, by execution backend.", l, uint64(b.Steals))
	}

	// Distributed-backend worker nodes, one series per node. Transport
	// bytes/frames are from the coordinator's perspective.
	for _, node := range st.Engine.Dist {
		l := obs.Labels{"node": strconv.Itoa(node.Rank)}
		alive := 0.0
		if node.Alive {
			alive = 1
		}
		gauge("subgraph_dist_node_up", "Whether the dist worker node's connection is alive.", l, alive)
		counter("subgraph_dist_node_bytes_sent_total", "Bytes the coordinator sent to the dist worker node.", l, uint64(node.BytesSent))
		counter("subgraph_dist_node_bytes_recv_total", "Bytes the coordinator received from the dist worker node.", l, uint64(node.BytesRecv))
		counter("subgraph_dist_node_frames_sent_total", "Protocol frames sent to the dist worker node.", l, uint64(node.FramesSent))
		counter("subgraph_dist_node_frames_recv_total", "Protocol frames received from the dist worker node.", l, uint64(node.FramesRecv))
		counter("subgraph_dist_node_exchanges_total", "Superstep completions the dist worker node reported.", l, uint64(node.Exchanges))
		counter("subgraph_dist_node_load_total", "Projection operations executed on the dist worker node.", l, uint64(node.Load))
		counter("subgraph_dist_node_jobs_total", "Finished rank reports from the dist worker node.", l, uint64(node.Jobs))
	}
}
