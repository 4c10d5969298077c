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
	closed  atomic.Bool      // Close has begun: a forward that ends later closes its connection
	logger  *slog.Logger
	start   time.Time

	reqIDs atomic.Uint64 // X-Request-ID sequence

	estimates atomic.Uint64 // estimations actually computed
	batches   atomic.Uint64

	precisionReqs atomic.Uint64 // precision-targeted requests resolved
	earlyStops    atomic.Uint64 // ...that stopped below their MaxTrials bound
	trialsSaved   atomic.Uint64 // trials the adaptive stops skipped vs MaxTrials

	// Cluster-mode counters (see ClusterStats for semantics).
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
// shutdown hostage until it finished. A replica's kept-alive connections
// to its peers close with it, not an idle timeout later — those of
// forwards still in flight as each one ends (doneForward).
func (s *Service) Close() {
	s.jobs.shutdown()
	s.sched.Close()
	if s.fwd != nil {
		s.closed.Store(true)
		s.fwd.CloseIdleConnections()
	}
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

// replayed answers j from the cache when tryReplay can: the job is born
// done and r's lease is released. The attempt is spanned on j's trace
// whether or not it answers, so a miss's cost is on the timeline too.
func (s *Service) replayed(j *job, r resolved) bool {
	begin := time.Now()
	est, ok := s.tryReplay(r.key.TrialKey(), r.q, r.req)
	j.tr.Add(spanCacheReplay, begin, time.Now())
	if ok {
		r.h.Release()
		s.jobs.addCached(j, est)
	}
	return ok
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
func (s *Service) run(ctx context.Context, r resolved, onTrial func(done int, mean, cv float64)) (coloring.Estimate, error) {
	req, tk := r.req, r.key.TrialKey()
	sess, err := coloring.NewSession(r.h.Graph(), r.q, coloring.Options{
		Seed: req.Seed,
		Core: core.Options{
			Algorithm: r.alg,
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
		cached, ok := s.cache.Get(tk, req.Trials)
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
	s.cache.Put(tk, TrialRun{Counts: counts, Stats: stats})
	end()
	// Persist the accumulated stream (async append, off the hot path) so
	// a restart replays it into the cache exactly as stored here.
	s.persistRun(tk, TrialRun{Counts: counts, Stats: stats})
	s.notePrecision(req, used)
	return est, nil
}

// submitJob registers one resolved estimation job, then either replays
// it from the result cache (the job is born done), attaches it to an
// identical in-flight job (singleflight), or schedules a fresh flight on
// the worker pool. It takes over r's lease. The job's deadline watchdog is
// armed before returning.
func (s *Service) submitJob(r resolved) (*job, error) {
	req, h, key := r.req, r.h, r.key
	j := &job{
		state:       JobQueued,
		graphName:   h.Graph().Name,
		queryName:   r.q.Name,
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
	// The replay attempt is the submit path's cache lookup.
	if !req.NoCache && s.replayed(j, r) {
		return j, nil
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
		if s.replayed(j, r) {
			jobs.inflightMu.Unlock()
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
	fr := r // the flight's copy: only a computed job moves one to the heap
	submitted := time.Now()
	jobs.mu.Lock()
	jobs.attachLocked(fl, j)
	err := s.sched.SubmitJob(fctx, req.Priority, func(ctx context.Context) {
		s.jobs.flightStarted(fl)
		// Queue wait: submission to worker pickup, the first section of
		// every computed job's timeline.
		tr.Add(spanQueueWait, submitted, time.Now())
		est, err := s.run(obs.WithTrace(ctx, tr), fr, func(done int, mean, cv float64) {
			fl.prog.Store(&flightProgress{done: done, mean: mean, cv: cv})
		})
		s.jobs.finishFlight(fl, est, err)
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
	r, err := s.resolve(req)
	if err != nil {
		return EstimateResult{}, err
	}
	return s.estimate(ctx, r)
}

// estimate submits a resolved request and waits for its job.
func (s *Service) estimate(ctx context.Context, r resolved) (EstimateResult, error) {
	j, err := s.submitJob(r)
	if err != nil {
		return EstimateResult{}, err
	}
	return s.waitJob(ctx, j)
}

// SubmitEstimateJob registers req as an async job and returns immediately
// with its listing entry; poll Job / WaitJob for completion and fetch the
// result with JobResult. An identical concurrent job (same graph
// fingerprint, query signature, and knobs) is coalesced onto one
// computation unless NoCache is set.
func (s *Service) SubmitEstimateJob(req EstimateRequest) (JobInfo, error) {
	r, err := s.resolve(req)
	if err != nil {
		return JobInfo{}, err
	}
	j, err := s.submitJob(r)
	if err != nil {
		return JobInfo{}, err
	}
	return s.jobs.snapshot(j), nil
}

// The job lookups below fail with ErrUnknownJob for unknown (or expired)
// ids.

// Job returns one job's current state by id.
func (s *Service) Job(id string) (JobInfo, error) { return s.WaitJob(context.Background(), id, 0) }

// Jobs lists every retained job, newest first.
func (s *Service) Jobs() []JobInfo { return s.jobs.list() }

// WaitJob blocks until the job reaches a terminal state, wait elapses
// (wait ≤ 0 means no blocking), or ctx fires, and returns the job's state
// at that moment.
func (s *Service) WaitJob(ctx context.Context, id string, wait time.Duration) (JobInfo, error) {
	j, err := s.jobs.get(id)
	if err != nil {
		return JobInfo{}, err
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
	return s.jobs.snapshot(j), nil
}

// CancelJob cancels a queued or running job. Canceling a job that
// already reached a terminal state leaves it untouched (the returned info
// shows the unchanged state); canceling the last job attached to a
// computation stops the computation mid-trial.
func (s *Service) CancelJob(id string) (JobInfo, error) {
	j, err := s.jobs.get(id)
	if err != nil {
		return JobInfo{}, err
	}
	s.jobs.detach(j, context.Canceled)
	return s.jobs.snapshot(j), nil
}

// JobResult returns a finished job's estimate. Besides ErrUnknownJob it
// fails with ErrJobNotDone while the job is queued or running, and with
// the job's own error for failed or canceled jobs.
func (s *Service) JobResult(id string) (EstimateResult, error) {
	j, err := s.jobs.get(id)
	if err != nil {
		return EstimateResult{}, err
	}
	return s.jobs.outcome(j)
}
