package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/query"
)

// ErrUnknownGraph is returned when a request references a graph id or
// name the registry does not hold (never registered, or evicted).
var ErrUnknownGraph = errors.New("service: unknown graph")

// Options configures a Service.
type Options struct {
	// Workers is the number of scheduler worker goroutines (≤ 0 means
	// runtime.NumCPU()). Each runs one estimation job at a time.
	Workers int
	// QueueDepth bounds the pending-job queue; submissions beyond it are
	// rejected with ErrQueueFull (≤ 0 means 1024).
	QueueDepth int
	// CacheCapacity bounds the result cache in entries (≤ 0 means 4096).
	CacheCapacity int
	// GraphBudgetBytes bounds the registry's resident graph memory
	// (≤ 0 means 1 GiB).
	GraphBudgetBytes int64
	// DefaultTrials is used when a request leaves Trials ≤ 0 (≤ 0 means 3,
	// matching subgraph.Estimate).
	DefaultTrials int
	// Backend is the execution backend used when a request leaves Backend
	// empty: "sim" (the paper's simulated distributed engine), "parallel"
	// (real shared-memory workers) or "dist" (worker processes; valid only
	// in a process that has connected a worker topology, as sgserve
	// -dist-workers does). Empty falls back to $SUBGRAPH_BACKEND, then
	// "sim". Estimates are bit-identical across backends; only engine
	// stats differ, so the backend is part of the result-cache key.
	Backend string
	// DefaultRanks is the execution width when a request leaves Ranks ≤ 0
	// (≤ 0 means 4, matching the core sim default); see
	// EstimateRequest.Ranks for what it counts on each backend. It never
	// decides how finely a single-process backend cuts the graph.
	DefaultRanks int
	// MaxTrials bounds the per-request trial count; requests beyond it are
	// rejected rather than allowed to allocate trials×n bytes of colorings
	// (≤ 0 means 1024).
	MaxTrials int
	// MaxRanks bounds the per-request simulated rank count; the engine
	// allocates per-rank state, so this must not be request-controlled
	// without limit (≤ 0 means 256).
	MaxRanks int
	// DefaultTimeout bounds each job when the request sets no TimeoutMS;
	// zero means no deadline.
	DefaultTimeout time.Duration
	// GraphDir, when non-empty, allows GraphSpec.Path loading for specs
	// submitted through AddGraph, resolved relative to (and confined to)
	// this directory and bounded by GraphBudgetBytes. When empty — the
	// default — path specs are rejected: requests must not be able to
	// probe the server's filesystem or load unbounded files.
	GraphDir string
	// JobTTL bounds how long a finished job (and its result) stays
	// addressable through the jobs API after it completes (≤ 0 means 10
	// minutes).
	JobTTL time.Duration
	// MaxJobs bounds how many finished jobs are retained; beyond it the
	// oldest finished jobs are dropped even before their TTL (≤ 0 means
	// 4096). Active jobs are never dropped.
	MaxJobs int
	// Logger receives the service's structured logs (per-request access
	// lines at Debug, lifecycle events at Info). Nil means slog.Default(),
	// which drops Debug — so access logging is opt-in via the handler's
	// level, not a separate switch.
	Logger *slog.Logger
	// DistStats, when non-nil, snapshots the distributed backend's
	// per-worker-node counters for /v1/stats and /metrics. The binary that
	// owns the dist cluster (sgserve) injects it; the service itself stays
	// agnostic of the cluster's lifecycle.
	DistStats func() []DistNodeStats
	// Durability, when Dir is set, persists trial-cache runs and terminal
	// jobs to an append-only log replayed on boot: a restarted service
	// serves warm-cache hits and keeps finished jobs addressable. Use
	// Open (not New) to surface replay I/O errors.
	Durability DurabilityOptions
	// Cluster, when non-nil, enables the multi-replica serving tier:
	// estimate and job submissions whose trial stream hashes to another
	// replica on the consistent-hash ring are proxied there (any replica
	// accepts any request), with circuit-broken local fallback when the
	// home is down. The binary that owns the cluster view (sgserve)
	// injects and closes it; the service only consults it.
	Cluster *cluster.Cluster
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	if o.CacheCapacity <= 0 {
		o.CacheCapacity = 4096
	}
	if o.GraphBudgetBytes <= 0 {
		o.GraphBudgetBytes = 1 << 30
	}
	if o.DefaultTrials <= 0 {
		o.DefaultTrials = 3
	}
	// Resolve the default backend once; an unknown name surfaces on the
	// first request rather than silently running the wrong runtime.
	if b, err := engine.Canonical(o.Backend); err == nil {
		o.Backend = b
	}
	if o.DefaultRanks <= 0 {
		o.DefaultRanks = 4
	}
	if o.MaxTrials <= 0 {
		o.MaxTrials = 1024
	}
	if o.MaxRanks <= 0 {
		o.MaxRanks = 256
	}
	if o.JobTTL <= 0 {
		o.JobTTL = 10 * time.Minute
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 4096
	}
	return o
}

// Service is the long-running estimation service: a graph registry, a
// result cache, a job manager, and a scheduled worker pool over the
// color-coding estimator. Every estimation — synchronous or async — is a
// job; the sync entry points are submit-and-wait wrappers over the same
// path, so sync and async results are bit-identical and cache-keyed the
// same way. All methods are safe for concurrent use.
type Service struct {
	opts    Options
	reg     *Registry
	cache   *Cache
	sched   *Scheduler
	jobs    *jobManager
	engine  *engineTracker
	metrics *metricsRecorder
	durable *durable.Log     // nil when Durability.Dir is unset
	cluster *cluster.Cluster // nil outside cluster mode
	fwd     *http.Client     // forwarding client; nil outside cluster mode
	logger  *slog.Logger
	start   time.Time

	reqIDs atomic.Uint64 // X-Request-ID sequence

	estimates atomic.Uint64 // estimations actually computed
	batches   atomic.Uint64

	precisionReqs atomic.Uint64 // precision-targeted requests resolved
	earlyStops    atomic.Uint64 // ...that stopped below their MaxTrials bound
	trialsSaved   atomic.Uint64 // trials the adaptive stops skipped vs MaxTrials

	// Cluster-mode counters (see ClusterStats for semantics).
	clForwards        atomic.Uint64
	clForwardErrors   atomic.Uint64
	clLocalFallbacks  atomic.Uint64
	clForwardedServed atomic.Uint64
	clHandoffExported atomic.Uint64
	clHandoffImported atomic.Uint64
	handoffActive     atomic.Int32 // in-progress handoff imports; /readyz is 503 while > 0
}

// New starts a service. Close releases its workers. With
// Options.Durability set, replay I/O errors panic — use Open to handle
// them; New stays infallible for the in-memory configuration every
// existing caller uses.
func New(opts Options) *Service {
	s, err := Open(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Open starts a service, replaying its durable log (when configured)
// before any traffic can arrive. The error is always nil for in-memory
// configurations; with Durability.Dir set it surfaces data-dir I/O
// failures — corrupt log tails are truncated and replayed past, never
// errors.
func Open(opts Options) (*Service, error) {
	opts = opts.withDefaults()
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	s := &Service{
		opts:    opts,
		reg:     NewRegistry(opts.GraphBudgetBytes),
		cache:   NewCache(opts.CacheCapacity, 0),
		sched:   NewScheduler(opts.Workers, opts.QueueDepth),
		jobs:    newJobManager(opts.JobTTL, opts.MaxJobs),
		engine:  newEngineTracker(),
		metrics: newMetricsRecorder(),
		logger:  logger,
		start:   time.Now(),
	}
	if opts.Cluster != nil {
		s.cluster = opts.Cluster
		s.fwd = newForwardClient()
	}
	if err := s.setupDurable(); err != nil {
		s.sched.Close()
		return nil, err
	}
	return s, nil
}

// Close cancels outstanding estimation flights (running solvers stop
// within one cancel-check interval; queued ones are dropped) and then
// stops the worker pool. Without the cancellation, a minutes-long async
// job — whose flight context is detached from any request — would hold
// shutdown hostage until it finished.
func (s *Service) Close() {
	s.jobs.shutdown()
	s.sched.Close()
	// The log closes last: the shutdown sweep above may still finalize
	// jobs (filtered from persistence) and Close flushes everything the
	// serving paths enqueued.
	if s.durable != nil {
		s.durable.Close()
	}
}

// Registry exposes the graph registry (for registration and listings).
func (s *Service) Registry() *Registry { return s.reg }

// Cache exposes the result cache (for stats and tests).
func (s *Service) Cache() *Cache { return s.cache }

// AddGraph registers the graph described by spec and returns its listing
// entry. The handle is released immediately: registration pins nothing,
// it only loads (or re-resolves) the graph. Specs arrive from untrusted
// requests, so Path is resolved inside Options.GraphDir (or rejected when
// none is configured) and the file must fit the registry budget — unlike
// Registry.Add, which trusts its caller.
func (s *Service) AddGraph(spec GraphSpec) (GraphInfo, error) {
	if spec.Path != "" {
		p, err := s.resolveGraphPath(spec.Path)
		if err != nil {
			return GraphInfo{}, err
		}
		spec.Path = p
	}
	h, err := s.reg.Add(spec)
	if err != nil {
		return GraphInfo{}, err
	}
	defer h.Release()
	info, _ := s.reg.Info(h.ID())
	return info, nil
}

// resolveGraphPath confines a request-supplied path to Options.GraphDir
// and bounds the file size: parse errors echo file content, so without
// the sandbox a request could read the first line of any server file, and
// the registry budget only applies after a graph is resident.
func (s *Service) resolveGraphPath(p string) (string, error) {
	if s.opts.GraphDir == "" {
		return "", fmt.Errorf("service: path-based graph loading is disabled (no graph dir configured)")
	}
	if filepath.IsAbs(p) {
		return "", fmt.Errorf("service: graph path must be relative to the graph dir")
	}
	clean := filepath.Clean(p)
	if clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("service: graph path escapes the graph dir")
	}
	// Resolve symlinks on both sides: a link inside the graph dir pointing
	// elsewhere must not defeat the lexical confinement above.
	root, err := filepath.EvalSymlinks(s.opts.GraphDir)
	if err != nil {
		return "", fmt.Errorf("service: graph dir: %w", err)
	}
	full, err := filepath.EvalSymlinks(filepath.Join(s.opts.GraphDir, clean))
	if err != nil {
		return "", fmt.Errorf("service: graph path: %w", err)
	}
	if full != root && !strings.HasPrefix(full, root+string(filepath.Separator)) {
		return "", fmt.Errorf("service: graph path escapes the graph dir")
	}
	fi, err := os.Stat(full)
	if err != nil {
		return "", fmt.Errorf("service: graph path: %w", err)
	}
	if fi.IsDir() {
		return "", fmt.Errorf("service: graph path %q is a directory", clean)
	}
	if fi.Size() > s.opts.GraphBudgetBytes {
		return "", fmt.Errorf("service: graph file %q (%d bytes) exceeds the registry budget (%d)", clean, fi.Size(), s.opts.GraphBudgetBytes)
	}
	return full, nil
}

// EstimateRequest is one estimation job.
type EstimateRequest struct {
	// Graph is the registry id or name of an already-registered graph.
	Graph string `json:"graph,omitempty"`
	// Query names a catalog or parametric query (see subgraph.QueryByName);
	// alternatively QueryEdges gives an explicit edge list over nodes
	// 0..k-1, with QueryName as optional display name.
	Query      string   `json:"query,omitempty"`
	QueryEdges [][2]int `json:"queryEdges,omitempty"`
	QueryName  string   `json:"queryName,omitempty"`

	// Algorithm is "DB" (default), "PS", or "PSEven".
	Algorithm string `json:"algorithm,omitempty"`
	// Backend is the execution backend: "sim", "parallel", or — on a
	// server connected to worker processes — "dist" ("" means the service
	// default). Estimates are bit-identical across backends; the engine
	// stats embedded in the result differ, so the backend is part of the
	// cache key.
	Backend string `json:"backend,omitempty"`
	// Trials is the number of independent colorings (≤ 0 means the service
	// default, itself defaulting to 3).
	Trials int `json:"trials,omitempty"`
	// Seed feeds the coloring RNG; equal seeds give bit-identical results.
	Seed int64 `json:"seed,omitempty"`
	// Ranks is the execution width (≤ 0 means the service default, itself
	// defaulting to 4): simulated ranks under "sim", worker goroutines
	// under "parallel" — bands of the same vertex partitions, whose number
	// follows the graph, not this — and total partitions spread over the
	// worker processes under "dist".
	Ranks int `json:"ranks,omitempty"`
	// Parallel runs up to this many trials concurrently inside the job;
	// results are bit-identical to serial (≤ 1 means serial).
	Parallel int `json:"parallel,omitempty"`
	// Priority orders queued jobs; higher runs first.
	Priority int `json:"priority,omitempty"`
	// TimeoutMS bounds the job, queue time included; 0 means the service
	// default.
	TimeoutMS int64 `json:"timeoutMs,omitempty"`
	// NoCache skips the result cache lookup (the result is still stored).
	NoCache bool `json:"noCache,omitempty"`
	// Precision switches the request from "run Trials colorings" to
	// "reach this precision": the job runs trials until the observed
	// confidence interval meets the declared target, reusing and
	// extending previously cached trials for the same stream. With
	// Precision set, Trials (if > 0) acts as the MaxTrials default.
	Precision *PrecisionSpec `json:"precision,omitempty"`
}

// PrecisionSpec is the wire form of a declared accuracy target: stop
// adding trials once the estimate's two-sided Confidence-level confidence
// interval has half-width at most RelErr of the mean. The stopping
// decision is a pure function of the per-trial counts, so a
// precision-targeted request is exactly as deterministic and cacheable as
// a fixed-trial one: it resolves to the same estimate a fixed request
// with its stopping trial count would get.
type PrecisionSpec struct {
	// RelErr is the target relative error (0.1 = ±10%); must be > 0.
	RelErr float64 `json:"relErr"`
	// Confidence is the two-sided confidence level in (0,1); 0 means 0.95.
	Confidence float64 `json:"confidence,omitempty"`
	// MinTrials is the earliest trial the rule may fire at (0 means 3).
	MinTrials int `json:"minTrials,omitempty"`
	// MaxTrials caps the adaptive run (0 means the request's trials, else
	// the server's max-trials limit).
	MaxTrials int `json:"maxTrials,omitempty"`
}

// rule is a normalized request's stopping rule, capped at its effective
// trial bound: the declared target's, or — a fixed-trial request — the
// rule with no target, which fires at Trials and nowhere earlier.
func (req EstimateRequest) rule() coloring.Adaptive {
	ad := coloring.Adaptive{MaxTrials: req.Trials}
	if p := req.Precision; p != nil {
		ad.Precision = coloring.Precision{RelErr: p.RelErr, Confidence: p.Confidence}
		ad.MinTrials = p.MinTrials
	}
	return ad
}

// EstimateResult is one finished estimation.
type EstimateResult struct {
	Estimate coloring.Estimate
	Cached   bool
	Elapsed  time.Duration
}

// ParseAlgorithm maps the wire name to a core.Algorithm ("" means DB).
func ParseAlgorithm(name string) (core.Algorithm, error) {
	switch name {
	case "", "DB", "db":
		return core.DB, nil
	case "PS", "ps":
		return core.PS, nil
	case "PSEven", "pseven":
		return core.PSEven, nil
	}
	return core.DB, fmt.Errorf("service: unknown algorithm %q (want DB, PS, or PSEven)", name)
}

// maxQueryK mirrors the solver's own query size limit (decomp and core
// reject K > 16). Enforcing it here means oversized queries are rejected
// at request time, before a worker slot is taken and trials×n bytes of
// colorings are drawn for a job that can only fail.
const maxQueryK = 16

// buildQuery resolves the request's query: a catalog/parametric name, or
// an explicit edge list. Both are untrusted: edge lists go through the
// checked constructor with the solver's node bound (so a hostile request
// cannot force a huge k×k adjacency allocation), and resolved queries of
// any provenance are size-checked here rather than deep inside a job.
func buildQuery(req EstimateRequest) (*query.Graph, error) {
	var (
		q   *query.Graph
		err error
	)
	if len(req.QueryEdges) == 0 {
		if req.Query == "" {
			return nil, fmt.Errorf("service: request needs query or queryEdges")
		}
		q, err = query.ByName(req.Query)
	} else {
		name := req.QueryName
		if name == "" {
			name = "custom"
		}
		q, err = query.FromEdgesChecked(name, req.QueryEdges, maxQueryK-1)
	}
	if err != nil {
		return nil, err
	}
	if q.K > maxQueryK {
		return nil, fmt.Errorf("service: query %s has %d nodes; the solver supports at most %d", q.Name, q.K, maxQueryK)
	}
	return q, nil
}

func (s *Service) normalize(req EstimateRequest) (EstimateRequest, error) {
	if req.Backend == "" {
		req.Backend = s.opts.Backend
	}
	// Canonicalize so "" / env-default / explicit "sim" all share one
	// cache key and one inflight-index key.
	backend, err := engine.Canonical(req.Backend)
	if err != nil {
		return req, err
	}
	req.Backend = backend
	if p := req.Precision; p != nil {
		// Normalize into a fresh copy: callers (and batches fanning one
		// spec across queries) must not see their spec mutated.
		np := *p
		if np.RelErr <= 0 {
			return req, fmt.Errorf("service: precision.relErr must be > 0 (got %g)", np.RelErr)
		}
		if np.Confidence == 0 {
			np.Confidence = coloring.DefaultConfidence
		}
		if np.Confidence <= 0 || np.Confidence >= 1 {
			return req, fmt.Errorf("service: precision.confidence %g outside (0,1)", np.Confidence)
		}
		if np.MinTrials <= 0 {
			np.MinTrials = coloring.DefaultMinTrials
		}
		if np.MinTrials < 2 {
			np.MinTrials = 2
		}
		if np.MaxTrials <= 0 {
			if req.Trials > 0 {
				np.MaxTrials = req.Trials
			} else {
				np.MaxTrials = s.opts.MaxTrials
			}
		}
		if np.MinTrials > np.MaxTrials {
			np.MinTrials = np.MaxTrials
		}
		// The adaptive bound rides in Trials from here on: it is the
		// worst-case trial count (sizing, limits, progress totals) and
		// keys the request together with the precision fields.
		req.Trials = np.MaxTrials
		req.Precision = &np
	}
	if req.Trials <= 0 {
		req.Trials = s.opts.DefaultTrials
	}
	if req.Trials > s.opts.MaxTrials {
		return req, fmt.Errorf("service: trials %d exceeds server limit %d", req.Trials, s.opts.MaxTrials)
	}
	if req.Ranks <= 0 {
		req.Ranks = s.opts.DefaultRanks
	}
	if req.Ranks > s.opts.MaxRanks {
		return req, fmt.Errorf("service: ranks %d exceeds server limit %d", req.Ranks, s.opts.MaxRanks)
	}
	// Parallel multiplies per-job memory (one simulated cluster per
	// concurrent trial) without changing results, so clamp rather than
	// reject: the request stays valid, the blast radius stays bounded.
	if req.Parallel > maxParallelPerJob {
		req.Parallel = maxParallelPerJob
	}
	return req, nil
}

// maxParallelPerJob caps intra-job trial concurrency; cross-job
// concurrency is already bounded by the worker pool.
const maxParallelPerJob = 16

// armDeadline starts the job's deadline watchdog from the request's
// timeout (or the service default). The deadline spans queue time and
// run time, as the pre-jobs sync path did.
func (s *Service) armDeadline(j *job, req EstimateRequest) {
	timeout := s.opts.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		s.jobs.arm(j, timeout)
	}
}

// key builds the request key for a normalized request. Fixed-trial
// requests leave the precision fields zero, so their keys are unchanged
// from the pre-precision API — the compatibility-shim test pins this
// against silent re-keying.
func (s *Service) key(fp uint64, q *query.Graph, alg core.Algorithm, req EstimateRequest) Key {
	k := Key{
		Graph:     fp,
		Query:     QuerySignature(q),
		Algorithm: alg,
		Backend:   req.Backend,
		Trials:    req.Trials,
		Seed:      req.Seed,
		Ranks:     req.Ranks,
	}
	if p := req.Precision; p != nil {
		k.RelErr = p.RelErr
		k.Confidence = p.Confidence
		k.MinTrials = p.MinTrials
	}
	return k
}

// tryReplay answers a request purely from cached trials: the request's
// stopping rule is walked over the cached counts and, if it fires within
// them, stops where a live run would have — the rule is a pure function
// of the count prefix. The assembled estimate is bit-identical to
// an uncached run at the same effective trial count (same counts, same
// Assemble). The boolean is false when the cache cannot fully answer —
// the flight then extends the cached trials instead of starting over.
func (s *Service) tryReplay(tk TrialKey, q *query.Graph, req EstimateRequest) (coloring.Estimate, bool) {
	// Peek at the counts alone first: the stopping decision needs nothing
	// else, and a precision request's bound (MaxTrials, up to the server
	// limit) can dwarf the handful of trials it actually uses — the
	// per-trial stats clone below is then sized by the answer, not the
	// bound.
	counts, ok := s.cache.Counts(tk, req.Trials)
	if !ok {
		return coloring.Estimate{}, false
	}
	used, ok := req.rule().StopAt(counts)
	if !ok {
		return coloring.Estimate{}, false
	}
	run, ok := s.cache.Get(tk, used)
	if !ok || run.Len() < used {
		// Evicted between the peek and the fetch: a miss like any other.
		return coloring.Estimate{}, false
	}
	run = run.prefix(used)
	est := coloring.Assemble("", q, run.Counts, run.Stats)
	s.notePrecision(req, used)
	return est, true
}

// notePrecision records a precision-targeted request's adaptive outcome:
// stopping below the MaxTrials bound is an early stop, and the trials not
// run are the compute the declarative API saved over the worst case.
func (s *Service) notePrecision(req EstimateRequest, used int) {
	if req.Precision == nil {
		return
	}
	s.precisionReqs.Add(1)
	if used < req.Trials {
		s.earlyStops.Add(1)
		s.trialsSaved.Add(uint64(req.Trials - used))
	}
}

// run executes one estimation as a trial session: cached trials for the
// same stream are preloaded (the extension path — only the missing trials
// run), the session advances until the request's stopping rule fires, and
// the accumulated trials go back to the cache so the next request starts
// where this one stopped.
// It is the only place estimates are computed, and every path assembles
// through coloring.Assemble, so cached, extended, and fresh results are
// bit-identical by construction.
func (s *Service) run(ctx context.Context, h *Handle, q *query.Graph, alg core.Algorithm, req EstimateRequest, key Key, onTrial func(done int, mean, cv float64)) (coloring.Estimate, error) {
	sess, err := coloring.NewSession(h.Graph(), q, coloring.Options{
		Seed: req.Seed,
		Core: core.Options{
			Algorithm: alg,
			Backend:   req.Backend,
			Workers:   req.Ranks,
		},
	})
	if err != nil {
		return coloring.Estimate{}, err
	}
	sess.OnTrial(onTrial)
	tr := obs.FromContext(ctx)
	if !req.NoCache {
		end := tr.Start(spanCacheLookup)
		cached, ok := s.cache.Get(key.TrialKey(), req.Trials)
		end()
		if ok {
			if err := sess.Preload(cached.Counts, cached.Stats); err != nil {
				return coloring.Estimate{}, err
			}
		}
	}
	used, err := sess.RunUntil(ctx, req.rule(), req.Parallel, 0)
	if err != nil {
		return coloring.Estimate{}, err
	}
	est := sess.EstimateAt(used)
	s.estimates.Add(1)
	if sess.Computed() > 0 {
		// Only the trials computed here count toward engine telemetry;
		// preloaded trials' work was recorded when it actually ran.
		s.engine.record(sess.ComputedStats())
	}
	counts, stats := sess.Run()
	end := tr.Start(spanCacheStore)
	s.cache.Put(key.TrialKey(), TrialRun{Counts: counts, Stats: stats})
	end()
	// Persist the accumulated stream (async append, off the hot path) so
	// a restart replays it into the cache exactly as stored here.
	s.persistRun(key.TrialKey(), TrialRun{Counts: counts, Stats: stats})
	s.notePrecision(req, used)
	return est, nil
}

// submitJob validates and registers one estimation job, then either
// replays it from the result cache (the job is born done), attaches it to
// an identical in-flight job (singleflight), or schedules a fresh flight
// on the worker pool. The job's deadline watchdog is armed before
// returning.
func (s *Service) submitJob(req EstimateRequest) (*job, error) {
	req, err := s.normalize(req)
	if err != nil {
		return nil, err
	}
	alg, err := ParseAlgorithm(req.Algorithm)
	if err != nil {
		return nil, err
	}
	q, err := buildQuery(req)
	if err != nil {
		return nil, err
	}
	h, ok := s.reg.Acquire(req.Graph)
	if !ok {
		return nil, fmt.Errorf("%w %q (register it first)", ErrUnknownGraph, req.Graph)
	}
	key := s.key(h.Fingerprint(), q, alg, req)
	j := &job{
		state:       JobQueued,
		graphName:   h.Graph().Name,
		queryName:   q.Name,
		trialsTotal: req.Trials,
		created:     time.Now(),
		done:        make(chan struct{}),
	}
	// The id is formatted here, before any path takes the jobs mutex, so
	// the allocation stays off the global critical section.
	s.jobs.assignID(j)
	// Every job carries a trace from birth. Its sink feeds the aggregate
	// latency histograms live, so /metrics sees a long job's supersteps
	// while it runs; the timeline itself is served by /v1/jobs/{id}/trace.
	// A job that attaches to an in-flight computation is re-pointed at the
	// flight owner's trace below (one computation, one timeline).
	tr := obs.NewTrace(j.id)
	tr.SetSink(s.metrics.traceSink(req.Backend))
	j.tr = tr
	if !req.NoCache {
		// The replay attempt is the submit path's cache lookup; span it
		// whether or not it answers, so a miss's cost is on the timeline.
		begin := time.Now()
		est, ok := s.tryReplay(key.TrialKey(), q, req)
		tr.Add(spanCacheReplay, begin, time.Now())
		if ok {
			h.Release()
			s.jobs.addCached(j, est)
			return j, nil
		}
	}

	// Singleflight: the index lock (held through flight creation)
	// serializes cache-missing submissions with each other and with
	// completions — the jobs mutex is taken briefly inside, never the
	// other way around.
	// NoCache requests bypass the index entirely: they never coalesce and
	// their flights are never findable. Flights are keyed by the full
	// request Key (trial bound and precision target included), not the
	// TrialKey: every waiter on a flight gets the one settled estimate,
	// and different precision tiers may resolve to different trial
	// counts. Two tiers racing over the same trial stream therefore run
	// separate flights and may duplicate trials the cache would have let
	// the later one reuse — sequential tiers share via the cache; a
	// per-TrialKey flight with per-waiter stop resolution is the known
	// next step if tier races show up in real traffic.
	jobs := s.jobs
	indexed := !req.NoCache
	if indexed {
		jobs.inflightMu.Lock()
		if fl := jobs.inflight[key]; fl != nil {
			// Found under the index lock ⇒ the flight cannot finish before
			// we attach (finishFlight removes it under this same lock
			// before settling waiters).
			jobs.mu.Lock()
			jobs.attachLocked(fl, j)
			jobs.registerLocked(j)
			jobs.mu.Unlock()
			jobs.inflightMu.Unlock()
			h.Release()
			s.armDeadline(j, req)
			return j, nil
		}
		// An identical flight may have finished between the unlocked cache
		// check above and taking the index lock (its Put lands before it
		// leaves the inflight index); re-check so the just-cached result
		// is replayed instead of recomputed.
		begin := time.Now()
		est, ok := s.tryReplay(key.TrialKey(), q, req)
		tr.Add(spanCacheReplay, begin, time.Now())
		if ok {
			jobs.inflightMu.Unlock()
			h.Release()
			s.jobs.addCached(j, est)
			return j, nil
		}
	}
	// New flight. Its context is detached from any request: the flight
	// lives until it finishes or every attached job detaches. The graph
	// lease is the flight's own (released by the scheduler's cleanup hook),
	// so the registry cannot evict the graph out from under a queued or
	// running flight.
	fctx, cancel := context.WithCancel(context.Background())
	fl := &flight{key: key, cancel: cancel, tr: tr}
	submitted := time.Now()
	jobs.mu.Lock()
	jobs.attachLocked(fl, j)
	_, err = s.sched.SubmitJob(fctx, req.Priority, func(ctx context.Context) error {
		s.jobs.flightStarted(fl)
		// Queue wait: submission to worker pickup, the first section of
		// every computed job's timeline.
		tr.Add(spanQueueWait, submitted, time.Now())
		est, err := s.run(obs.WithTrace(ctx, tr), h, q, alg, req, key, func(done int, mean, cv float64) {
			fl.prog.Store(&flightProgress{done: done, mean: mean, cv: cv})
		})
		s.jobs.finishFlight(fl, est, err)
		return err
	}, func() {
		h.Release()
		// Dropped without running (context canceled while queued): settle
		// any job still attached. A no-op when fn already finished it.
		s.jobs.finishFlight(fl, coloring.Estimate{}, context.Canceled)
	})
	if err != nil {
		jobs.mu.Unlock()
		if indexed {
			jobs.inflightMu.Unlock()
		}
		cancel()
		h.Release()
		return nil, err
	}
	if indexed {
		jobs.inflight[key] = fl
	}
	jobs.registerLocked(j)
	jobs.mu.Unlock()
	if indexed {
		jobs.inflightMu.Unlock()
	}
	s.armDeadline(j, req)
	return j, nil
}

// waitJob blocks until j reaches a terminal state or ctx fires; a fired
// ctx detaches the caller's job (canceling the shared flight when it was
// the last waiter) and surfaces ctx's error — unless the job finished
// first, in which case completion wins.
func (s *Service) waitJob(ctx context.Context, j *job) (EstimateResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		s.jobs.detach(j, ctx.Err())
		<-j.done // closed by detach, or already closed if completion won
		// The caller's own context ended the wait: report its error
		// (client cancel / deadline), not the gone-result condition a
		// third party would see — unless completion won the race, in
		// which case the real result stands.
		res, err := s.jobs.outcome(j)
		if err != nil {
			return EstimateResult{}, ctx.Err()
		}
		return res, nil
	}
	return s.jobs.outcome(j)
}

// Estimate runs (or replays from cache) one estimation. It blocks until
// the scheduled job finishes or ctx / the request timeout fires. It is a
// submit-and-wait wrapper over the same job path as SubmitEstimateJob, so
// sync and async results are bit-identical.
func (s *Service) Estimate(ctx context.Context, req EstimateRequest) (EstimateResult, error) {
	start := time.Now()
	j, err := s.submitJob(req)
	if err != nil {
		return EstimateResult{}, err
	}
	res, err := s.waitJob(ctx, j)
	if err != nil {
		return EstimateResult{}, err
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// SubmitEstimateJob registers req as an async job and returns immediately
// with its listing entry; poll Job / WaitJob for completion and fetch the
// result with JobResult. An identical concurrent job (same graph
// fingerprint, query signature, and knobs) is coalesced onto one
// computation unless NoCache is set.
func (s *Service) SubmitEstimateJob(req EstimateRequest) (JobInfo, error) {
	j, err := s.submitJob(req)
	if err != nil {
		return JobInfo{}, err
	}
	return s.jobs.snapshot(j), nil
}

// Job returns one job's current state by id.
func (s *Service) Job(id string) (JobInfo, bool) {
	j, ok := s.jobs.get(id)
	if !ok {
		return JobInfo{}, false
	}
	return s.jobs.snapshot(j), true
}

// Jobs lists every retained job, newest first.
func (s *Service) Jobs() []JobInfo { return s.jobs.list() }

// WaitJob blocks until the job reaches a terminal state, wait elapses
// (wait ≤ 0 means no blocking), or ctx fires, and returns the job's state
// at that moment. The second return is false for unknown ids.
func (s *Service) WaitJob(ctx context.Context, id string, wait time.Duration) (JobInfo, bool) {
	j, ok := s.jobs.get(id)
	if !ok {
		return JobInfo{}, false
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case <-j.done:
		case <-t.C:
		case <-ctx.Done():
		}
	}
	return s.jobs.snapshot(j), true
}

// CancelJob cancels a queued or running job. Canceling a job that
// already reached a terminal state leaves it untouched (the returned info
// shows the unchanged state); canceling the last job attached to a
// computation stops the computation mid-trial. The second return is false
// for unknown ids.
func (s *Service) CancelJob(id string) (JobInfo, bool) {
	j, ok := s.jobs.get(id)
	if !ok {
		return JobInfo{}, false
	}
	s.jobs.detach(j, context.Canceled)
	return s.jobs.snapshot(j), true
}

// JobResult returns a finished job's estimate. It fails with
// ErrUnknownJob for unknown (or expired) ids, ErrJobNotDone while the job
// is queued or running, and the job's own error for failed or canceled
// jobs.
func (s *Service) JobResult(id string) (EstimateResult, error) {
	j, ok := s.jobs.get(id)
	if !ok {
		return EstimateResult{}, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	return s.jobs.outcome(j)
}

// BatchRequest fans one graph and many queries out across the worker
// pool. Per-query fields left zero inherit the batch-level defaults —
// which means a zero per-query value (seed 0, priority 0) cannot
// override a non-zero batch default; leave the batch field unset, or
// send that query as a standalone estimate, to run at the zero value.
type BatchRequest struct {
	Graph     string            `json:"graph"`
	Algorithm string            `json:"algorithm,omitempty"`
	Backend   string            `json:"backend,omitempty"`
	Trials    int               `json:"trials,omitempty"`
	Seed      int64             `json:"seed,omitempty"`
	Ranks     int               `json:"ranks,omitempty"`
	Priority  int               `json:"priority,omitempty"`
	TimeoutMS int64             `json:"timeoutMs,omitempty"`
	NoCache   bool              `json:"noCache,omitempty"`
	Precision *PrecisionSpec    `json:"precision,omitempty"`
	Queries   []EstimateRequest `json:"queries"`
}

// BatchItem is one query's outcome within a batch.
type BatchItem struct {
	Query  string
	Result EstimateResult
	Err    error
}

// label names a batch item for error attribution even when the request
// failed before a query graph existed: catalog name, else the explicit
// queryName, else the item's position.
func label(req EstimateRequest, i int) string {
	switch {
	case req.Query != "":
		return req.Query
	case req.QueryName != "":
		return req.QueryName
	default:
		return fmt.Sprintf("#%d", i)
	}
}

// relabel stamps the requester's own display names onto a cache-hit
// estimate: the cache key deliberately ignores names (same topology, same
// knobs → one entry), so without this a hit would replay whatever names
// the first requester used.
func relabel(est *coloring.Estimate, queryName, graphName string) {
	est.Query = queryName
	est.Graph = graphName
}

// EstimateBatch resolves the batch's graph once and submits every query
// as its own job — exactly as a standalone estimate is — so a batch of N
// queries occupies up to N workers concurrently, and identical queries
// coalesce onto one flight. Results keep the request order; per-item
// errors do not fail the batch (a batch-level error means nothing ran).
func (s *Service) EstimateBatch(ctx context.Context, breq BatchRequest) ([]BatchItem, error) {
	if len(breq.Queries) == 0 {
		return nil, fmt.Errorf("service: batch has no queries")
	}
	// Hold a lease across submission so the graph cannot be evicted
	// between items; each flight takes its own lease on top.
	h, ok := s.reg.Acquire(breq.Graph)
	if !ok {
		return nil, fmt.Errorf("%w %q (register it first)", ErrUnknownGraph, breq.Graph)
	}
	defer h.Release()
	s.batches.Add(1)

	items := make([]BatchItem, len(breq.Queries))
	type pendingJob struct {
		i     int
		j     *job
		start time.Time
	}
	var pending []pendingJob
	for i, qreq := range breq.Queries {
		start := time.Now()
		if qreq.Graph != "" && qreq.Graph != breq.Graph {
			// Honoring a per-query graph would need its own registry
			// lookup; silently computing against the batch graph instead
			// would be a wrong answer without an error.
			items[i] = BatchItem{Query: label(qreq, i),
				Err: fmt.Errorf("service: batch query %d names graph %q; batches run against one graph (%q)", i, qreq.Graph, breq.Graph)}
			continue
		}
		qreq.Graph = breq.Graph
		if qreq.Algorithm == "" {
			qreq.Algorithm = breq.Algorithm
		}
		if qreq.Backend == "" {
			qreq.Backend = breq.Backend
		}
		if qreq.Trials <= 0 {
			qreq.Trials = breq.Trials
		}
		if qreq.Seed == 0 {
			qreq.Seed = breq.Seed
		}
		if qreq.Ranks <= 0 {
			qreq.Ranks = breq.Ranks
		}
		if qreq.Priority == 0 {
			qreq.Priority = breq.Priority
		}
		if qreq.TimeoutMS <= 0 {
			qreq.TimeoutMS = breq.TimeoutMS
		}
		if qreq.Precision == nil {
			qreq.Precision = breq.Precision
		}
		qreq.NoCache = qreq.NoCache || breq.NoCache
		// Resolve the query here (submitJob will again, cheaply) to name
		// the item whatever becomes of its submission.
		nreq, err := s.normalize(qreq)
		if err != nil {
			items[i] = BatchItem{Query: label(qreq, i), Err: err}
			continue
		}
		q, err := buildQuery(nreq)
		if err != nil {
			items[i] = BatchItem{Query: label(qreq, i), Err: err}
			continue
		}
		items[i].Query = q.Name
		j, err := s.submitJob(qreq)
		if err != nil {
			items[i] = BatchItem{Query: q.Name, Err: err}
			continue
		}
		pending = append(pending, pendingJob{i: i, j: j, start: start})
	}
	for _, p := range pending {
		res, err := s.waitJob(ctx, p.j)
		if err != nil {
			items[p.i].Err = err
			continue
		}
		res.Elapsed = time.Since(p.start)
		items[p.i].Result = res
	}
	return items, nil
}

// PrecisionStats describe the adaptive stopping decisions: how many
// precision-targeted requests the service resolved, how many stopped
// below their MaxTrials bound, and how many trials those early stops
// skipped — the compute the declarative API saved over fixed worst-case
// trial counts. Trials reused from the cache are counted separately, as
// cache.extended.
type PrecisionStats struct {
	Requests    uint64 `json:"requests"`
	EarlyStops  uint64 `json:"earlyStops"`
	TrialsSaved uint64 `json:"trialsSaved"`
}

// Stats is the service-wide observability snapshot.
type Stats struct {
	UptimeSeconds float64        `json:"uptimeSeconds"`
	Estimates     uint64         `json:"estimates"`
	Batches       uint64         `json:"batches"`
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
	// peer health, forwarding and handoff counters); nil (omitted) in
	// single-replica mode.
	Cluster *ClusterStats `json:"cluster,omitempty"`
	// HTTP is per-endpoint request latency (count, mean, p50/p95/p99),
	// summarized from the same histograms /metrics exposes in full.
	HTTP map[string]LatencySummary `json:"http,omitempty"`
	// TrialLatency is per-backend solve time of individual trials.
	TrialLatency map[string]LatencySummary `json:"trialLatency,omitempty"`
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
		Jobs:      s.jobs.stats(),
		Engine: EngineStats{
			Backend:  s.opts.Backend,
			Workers:  s.opts.DefaultRanks,
			Backends: s.engine.snapshot(),
			Dist:     s.distStats(),
		},
		HTTP:         s.metrics.httpSummary(),
		TrialLatency: s.metrics.trialSummary(),
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
