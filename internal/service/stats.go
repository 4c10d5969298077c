package service

import (
	"time"
)

// PrecisionStats describe the adaptive stopping decisions: how many
// precision-targeted requests the service resolved, how many stopped
// below their MaxTrials bound, and how many trials those early stops
// skipped — the compute the declarative API saved over fixed worst-case
// trial counts. Trials reused from the cache are counted separately, as
// cache.extended.
type PrecisionStats struct {
	Requests    uint64 `json:"requests" metric:"precision_requests_total" help:"Precision-targeted requests resolved."`
	EarlyStops  uint64 `json:"earlyStops" metric:"precision_early_stops_total" help:"Precision requests that stopped below their MaxTrials bound."`
	TrialsSaved uint64 `json:"trialsSaved" metric:"precision_trials_saved_total" help:"Trials adaptive stopping skipped versus the worst-case bound."`
}

// Stats is the service-wide observability snapshot: /v1/stats serves it
// as JSON and /metrics walks it (bridge). Each numeric or bool field names
// its Prometheus family in its metric tag, beside its JSON name.
type Stats struct {
	UptimeSeconds float64        `json:"uptimeSeconds" metric:"uptime_seconds" help:"Seconds since the service started."`
	Estimates     uint64         `json:"estimates" metric:"estimates_total" help:"Estimations actually computed (cache replays excluded)."`
	Batches       uint64         `json:"batches" metric:"batches_total" help:"Batch requests served."`
	Precision     PrecisionStats `json:"precision"`
	Registry      RegistryStats  `json:"registry"`
	Cache         CacheStats     `json:"cache"`
	Scheduler     SchedulerStats `json:"scheduler"`
	Jobs          JobsStats      `json:"jobs"`
	Engine        EngineStats    `json:"engine"`
	// Durable is the persistence layer's counters; nil (omitted) when the
	// service runs in-memory.
	Durable *DurableStats `json:"durable,omitempty"`
	// Cluster is the multi-replica serving tier's section (membership,
	// peer health and forwarding counters); nil (omitted) in
	// single-replica mode.
	Cluster *ClusterStats `json:"cluster,omitempty"`
	// HTTP is per-endpoint request latency (count, mean, p50/p95/p99),
	// summarized from the same histograms /metrics exposes in full.
	HTTP map[string]LatencySummary `json:"http,omitempty" metric:"-"`
	// TrialLatency is per-backend solve time of individual trials.
	TrialLatency map[string]LatencySummary `json:"trialLatency,omitempty" metric:"-"`
}

// Stats returns the current counters of every layer.
func (s *Service) Stats() Stats {
	var dur *DurableStats
	if s.durable != nil {
		d := s.durable.Stats()
		dur = &d
	}
	return Stats{
		Durable:       dur,
		Cluster:       s.clusterStats(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Estimates:     s.estimates.Load(),
		Batches:       s.batches.Load(),
		Precision: PrecisionStats{
			Requests:    s.precisionReqs.Load(),
			EarlyStops:  s.earlyStops.Load(),
			TrialsSaved: s.trialsSaved.Load(),
		},
		Registry:  s.reg.Stats(),
		Cache:     s.cache.Stats(),
		Scheduler: s.sched.Stats(),
		Jobs:      s.jobs.Stats(),
		Engine: EngineStats{
			Backend:  s.opts.Backend,
			Workers:  s.opts.DefaultRanks,
			Backends: s.engine.snapshot(),
			Dist:     s.distStats(),
		},
		HTTP:         s.metrics.summaries(s.metrics.requestH),
		TrialLatency: s.metrics.summaries(s.metrics.trialH),
	}
}

// distStats snapshots the dist cluster's per-node counters when the
// process has one wired in.
func (s *Service) distStats() []DistNodeStats {
	if s.opts.DistStats == nil {
		return nil
	}
	return s.opts.DistStats()
}
