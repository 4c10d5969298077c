package subgraph

import (
	"repro/internal/cluster"
	"repro/internal/service"
)

// The serving layer: a long-running Service amortizes graph loading (a
// reference-counted, LRU-evicted registry), whole estimations (an LRU
// result cache keyed by graph fingerprint + query signature + estimation
// knobs), and concurrency (a bounded priority-scheduled worker pool) over
// Estimate. The registry, the cache, the job manager and its singleflight
// index each sit behind one mutex whose contention /v1/stats reports
// (lockWaits, lockWaitMs). Every estimation runs as a cancellable,
// observable job:
// Service.Estimate is a submit-and-wait wrapper, and SubmitEstimateJob /
// Job / WaitJob / CancelJob / JobResult expose the async lifecycle
// (states queued → running → done|failed|canceled, per-trial progress,
// TTL'd result retention, singleflight coalescing of identical concurrent
// requests). cmd/sgserve exposes it over HTTP; embed it directly via
// NewService for in-process use.
type (
	Service         = service.Service
	ServiceOptions  = service.Options
	ServiceStats    = service.Stats
	GraphSpec       = service.GraphSpec
	GraphInfo       = service.GraphInfo
	EstimateRequest = service.EstimateRequest
	EstimateResult  = service.EstimateResult
	BatchRequest    = service.BatchRequest
	BatchItem       = service.BatchItem
	JobInfo         = service.JobInfo
	JobState        = service.JobState
	JobProgress     = service.JobProgress
	JobsStats       = service.JobsStats
	// PrecisionSpec is the wire form of a declared (relErr, confidence)
	// accuracy target: EstimateRequest.Precision switches a request from
	// "run Trials colorings" to "reach this precision", with previously
	// cached trials reused and extended instead of recomputed.
	PrecisionSpec = service.PrecisionSpec
	// PrecisionServiceStats reports the adaptive stopping outcomes
	// (requests, earlyStops, trialsSaved) under ServiceStats.Precision.
	PrecisionServiceStats = service.PrecisionStats
	// TraceInfo is one job's recorded phase timeline (GET
	// /v1/jobs/{id}/trace): queue wait, cache lookup/store, and one span
	// per solver superstep, with per-phase aggregates.
	TraceInfo  = service.TraceInfo
	TraceSpan  = service.TraceSpan
	TracePhase = service.TracePhase
	// LatencySummary is a latency histogram rendered as count, mean, and
	// interpolated p50/p95/p99 milliseconds (ServiceStats.HTTP and
	// ServiceStats.TrialLatency).
	LatencySummary = service.LatencySummary
	// DistNodeStats is one distributed worker node's transport counters
	// (ServiceStats.Engine.Dist), populated when the server runs the
	// "dist" backend against real worker processes.
	DistNodeStats = service.DistNodeStats
	// DurabilityOptions configure the persistence layer
	// (ServiceOptions.Durability): with Dir set, trial-cache runs and
	// terminal jobs are appended to a CRC-framed log and replayed on
	// boot, so a restarted service serves warm-cache hits and keeps
	// finished jobs addressable. Use OpenService to surface replay I/O
	// errors.
	DurabilityOptions = service.DurabilityOptions
	// DurableStats is the persistence layer's counter section
	// (ServiceStats.Durable, nil for in-memory services): appends, queue
	// lag, replayed runs/jobs, compactions, fsyncs, file sizes.
	DurableStats = service.DurableStats
	// ClusterView is one replica's view of the multi-replica serving
	// tier (ServiceOptions.Cluster): a deterministic consistent-hash
	// ring over the static membership plus per-peer health and circuit
	// breakers. Build one with NewCluster and inject it; the replica then
	// proxies estimate/job requests whose trial stream hashes to another
	// member, falling back to local execution when the home is down.
	ClusterView = cluster.Cluster
	// ClusterOptions configure a ClusterView: Self (this replica's
	// advertised address), Members (every replica's address — identical
	// on every replica), and the health/breaker knobs.
	ClusterOptions = cluster.Options
	// ClusterServiceStats is the cluster section of ServiceStats
	// (membership, peer health, forwarding and handoff counters); nil in
	// single-replica mode.
	ClusterServiceStats = service.ClusterStats
)

// Job lifecycle states.
const (
	JobQueued   = service.JobQueued
	JobRunning  = service.JobRunning
	JobDone     = service.JobDone
	JobFailed   = service.JobFailed
	JobCanceled = service.JobCanceled
)

// NewService starts an estimation service. Close it when done; results it
// computes are bit-identical to direct Estimate calls with the same
// algorithm, trials, and seed — whether fetched synchronously or through
// the jobs API.
func NewService(opts ServiceOptions) *Service { return service.New(opts) }

// OpenService starts an estimation service like NewService, but surfaces
// the durable log's replay I/O errors instead of panicking — the right
// constructor whenever ServiceOptions.Durability is configured. Corrupt
// or torn log tails are not errors: they are truncated and replayed
// past, with the dropped bytes counted in ServiceStats.Durable.
func OpenService(opts ServiceOptions) (*Service, error) { return service.Open(opts) }

// NewCluster builds one replica's cluster view for
// ServiceOptions.Cluster. The caller owns it: inject it into the
// service, Close it on shutdown. Every replica must be configured with
// the same member set — key→home assignment is a pure function of it,
// which is what lets replicas agree on ownership with no coordination
// protocol.
func NewCluster(opts ClusterOptions) (*ClusterView, error) { return cluster.New(opts) }
