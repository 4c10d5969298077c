package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/obs"
)

// Handler returns the service's HTTP API:
//
//	GET    /healthz             liveness and readiness probe: boot replay
//	                            happens before the listener binds, so a cold
//	                            replica reads as connection-refused, never 200
//	GET    /metrics             Prometheus text-format exposition: request/trial/
//	                            phase latency histograms recorded live, plus the
//	                            /v1/stats snapshot walked at scrape time
//	GET    /v1/stats            counters of every layer (registry, cache, scheduler, jobs)
//	                            with each one's lock-wait counters,
//	                            per-execution-backend engine
//	                            counters under "engine", and per-endpoint /
//	                            per-backend latency quantiles under "http" and
//	                            "trialLatency"
//	POST   /v1/graphs           register a graph (GraphSpec JSON) → GraphInfo
//	GET    /v1/graphs           list registered graphs
//	GET    /v1/graphs/X         one graph by id or name
//	POST   /v1/estimate         run one estimation synchronously (EstimateRequest JSON)
//	POST   /v1/batch            fan a BatchRequest's queries across the worker pool
//	POST   /v1/jobs             submit an estimation job (EstimateRequest JSON) → 202 JobInfo
//	GET    /v1/jobs             list retained jobs, newest first
//	GET    /v1/jobs/{id}        one job's state; ?wait=2s long-polls for completion
//	GET    /v1/jobs/{id}/events server-sent events: per-trial progress (trial
//	                            index, running mean, CV) pushed as the job runs,
//	                            ending with one event named after the terminal
//	                            state — no poll loop needed
//	GET    /v1/jobs/{id}/trace  the job's recorded phase timeline: queue wait,
//	                            cache lookup/store, and one span per solver
//	                            superstep, with per-phase aggregates
//	GET    /v1/jobs/{id}/result a finished job's estimate (?wait= supported)
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//
// In cluster mode (Options.Cluster set) estimate and job submissions
// whose trial stream belongs to another replica are transparently
// proxied there (response relayed verbatim, plus an X-Subgraph-Home
// header); a request carrying the X-Subgraph-Forward loop-guard header
// is always executed locally.
//
// Estimate and job requests accept a "precision" object alongside
// "trials" (see PrecisionSpec): instead of a fixed trial count the job
// runs its trials, one after another, until the declared (relErr,
// confidence) target is met, its all-zero trials put the count below one
// match at that confidence (the estimate is then 0), or maxTrials is
// reached, reusing and extending previously cached trials for the same
// stream; the adaptive outcome is visible in /v1/stats under "precision"
// (earlyStops, trialsSaved) and "cache" (extended). Request bodies are
// decoded with unknown fields refused, so "parallel" and
// "precision.minTrials", which the serial trial loop and its fixed first
// stop no longer read, are 400s.
//
// Estimate responses carry X-Cache: HIT|MISS and X-Elapsed-Ms headers; the
// body is exactly the estimate, so a cache hit replays the original body
// byte for byte, and a job's result body is byte-identical to the
// synchronous /v1/estimate body for the same request — both are served
// from the same job path.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/graphs", s.handleAddGraph)
	mux.HandleFunc("GET /v1/graphs", s.handleListGraphs)
	mux.HandleFunc("GET /v1/graphs/{ref}", s.handleGetGraph)
	mux.HandleFunc("POST /v1/estimate", s.handleEstimate)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	return s.instrument(mux)
}

// statusRecorder captures the response status for the instrumentation
// middleware. It forwards Flush (the SSE stream needs the underlying
// flusher) and exposes the wrapped writer via Unwrap for
// http.ResponseController users.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusRecorder) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusRecorder) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps the API mux with per-request observability: a
// monotonically increasing X-Request-ID response header, per-endpoint
// request counters and latency histograms, and a structured access log
// line at Debug level. The endpoint label is the mux's matched route
// pattern (the Go 1.22 ServeMux writes it back onto the request during
// ServeHTTP), never the raw URL — labels stay low-cardinality no matter
// what paths clients probe.
func (s *Service) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		begin := time.Now()
		id := "r" + strconv.FormatUint(s.reqIDs.Add(1), 10)
		w.Header().Set("X-Request-ID", id)
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)
		endpoint := r.Pattern
		if i := strings.IndexByte(endpoint, ' '); i >= 0 {
			endpoint = endpoint[i+1:] // drop the method: one label per route
		}
		if endpoint == "" {
			endpoint = "unmatched"
		}
		code := rec.status
		if code == 0 {
			code = http.StatusOK
		}
		elapsed := time.Since(begin)
		s.metrics.observeRequest(endpoint, code, elapsed.Seconds())
		s.logger.Debug("http request",
			"id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"endpoint", endpoint,
			"status", code,
			"elapsedMs", ms(elapsed),
		)
	})
}

// handleMetrics serves the Prometheus text-format exposition. The
// live-recorded histograms are always current; immediately before
// rendering, bridge walks the snapshot /v1/stats would serve and sets each
// field's series in the family its metric tag names.
func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.metrics.bridge(s.Stats())
	w.Header().Set("Content-Type", obs.ExpositionContentType)
	s.metrics.reg.WritePrometheus(w) //nolint:errcheck // client gone; nothing to do
}

func (s *Service) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	info, err := s.JobTrace(r.PathValue("id"))
	reply(w, http.StatusOK, info, err)
}

// reply writes v as JSON with status, or err as the error body its
// status maps to (writeError).
func reply(w http.ResponseWriter, status int, v any, err error) {
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, status, v)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

type errorBody struct {
	Error string `json:"error"`
}

// StatusClientClosedRequest is nginx's 499: the client canceled the
// request before the server finished it. Client disconnects get their own
// status so load-shedding metrics (real 503s) aren't polluted by clients
// giving up.
const StatusClientClosedRequest = 499

// retryAfterSeconds is the Retry-After value every 503 carries: shed
// load and a closing service clear in about a second, and the header is
// what lets a well-behaved client (or a cluster peer) back off instead
// of hammering a replica that is already saturated.
const retryAfterSeconds = "1"

// writeError maps service errors to HTTP statuses: full queue → 503 (shed
// load, with a Retry-After header), deadline → 504, canceled client →
// 499, a canceled job's result → 410 (the fetcher completed its request;
// the result is just gone), unknown graph or job → 404, not-yet-finished
// job result → 409, a count past 64 bits or a query with too many plans
// to list → 422, anything else (malformed specs, bad queries) → 400.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfterSeconds)
	case errors.Is(err, ErrJobCanceled):
		status = http.StatusGone
	case errors.Is(err, context.Canceled):
		status = StatusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, ErrUnknownGraph), errors.Is(err, ErrUnknownJob):
		status = http.StatusNotFound
	case errors.Is(err, ErrJobNotDone):
		status = http.StatusConflict
	case errors.Is(err, core.ErrCountOverflow), errors.Is(err, decomp.ErrPlanSpace):
		status = http.StatusUnprocessableEntity
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, fmt.Errorf("service: bad request body: %w", err))
		return false
	}
	return true
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"uptimeSeconds": time.Since(s.start).Seconds(),
	})
}

func (s *Service) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Service) handleAddGraph(w http.ResponseWriter, r *http.Request) {
	var spec GraphSpec
	if !decodeBody(w, r, &spec) {
		return
	}
	info, err := s.AddGraph(spec)
	reply(w, http.StatusOK, info, err)
}

func (s *Service) handleListGraphs(w http.ResponseWriter, _ *http.Request) {
	infos := s.reg.List()
	if infos == nil {
		infos = []GraphInfo{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"graphs": infos})
}

func (s *Service) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	ref := r.PathValue("ref")
	info, ok := s.reg.Info(ref)
	if !ok {
		writeError(w, fmt.Errorf("%w %q", ErrUnknownGraph, ref))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Service) handleEstimate(w http.ResponseWriter, r *http.Request) {
	rr, ok := s.admit(w, r, "/v1/estimate")
	if !ok {
		return
	}
	res, err := s.estimate(r.Context(), rr)
	writeResult(w, res, err)
}

// writeResult writes one estimate the way /v1/estimate and a job's
// /result both serve it: the body is exactly the estimate, with X-Cache
// and X-Elapsed-Ms headers; a failed one is an error body.
func writeResult(w http.ResponseWriter, res EstimateResult, err error) {
	if err == nil {
		cache := "MISS"
		if res.Cached {
			cache = "HIT"
		}
		w.Header().Set("X-Cache", cache)
		w.Header().Set("X-Elapsed-Ms", fmt.Sprintf("%.3f", float64(res.Elapsed.Microseconds())/1000))
	}
	reply(w, http.StatusOK, res.Estimate, err)
}

// batchItemBody is the wire form of one batch outcome.
type batchItemBody struct {
	Query     string          `json:"query"`
	Cached    bool            `json:"cached"`
	ElapsedMS float64         `json:"elapsedMs"`
	Estimate  json.RawMessage `json:"estimate,omitempty"`
	Error     string          `json:"error,omitempty"`
}

func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	var breq BatchRequest
	if !decodeBody(w, r, &breq) {
		return
	}
	items, err := s.EstimateBatch(r.Context(), breq)
	if err != nil {
		writeError(w, err)
		return
	}
	body := make([]batchItemBody, len(items))
	for i, it := range items {
		body[i] = batchItemBody{Query: it.Query}
		if it.Err != nil {
			body[i].Error = it.Err.Error()
			continue
		}
		body[i].Cached = it.Result.Cached
		body[i].ElapsedMS = float64(it.Result.Elapsed.Microseconds()) / 1000
		raw, err := json.Marshal(it.Result.Estimate)
		if err != nil {
			body[i].Error = err.Error()
			continue
		}
		body[i].Estimate = raw
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"graph":   breq.Graph,
		"results": body,
	})
}

// maxLongPoll caps the ?wait= long-poll duration so a client cannot pin
// a connection open indefinitely.
const maxLongPoll = time.Minute

// pollJob serves a job's state and its result: it reads the optional
// ?wait= long-poll duration ("2s", "500ms") and waits that long for the
// path's job (WaitJob).
func (s *Service) pollJob(r *http.Request) (JobInfo, error) {
	var wait time.Duration
	if raw := r.URL.Query().Get("wait"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil {
			return JobInfo{}, fmt.Errorf("service: bad wait %q: %w", raw, err)
		}
		if d < 0 {
			return JobInfo{}, fmt.Errorf("service: bad wait %q: negative", raw)
		}
		wait = min(d, maxLongPoll)
	}
	return s.WaitJob(r.Context(), r.PathValue("id"), wait)
}

func (s *Service) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	rr, ok := s.admit(w, r, "/v1/jobs")
	if !ok {
		return
	}
	j, err := s.submitJob(rr)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, s.jobs.snapshot(j))
}

func (s *Service) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.Jobs()})
}

func (s *Service) handleGetJob(w http.ResponseWriter, r *http.Request) {
	info, err := s.pollJob(r)
	reply(w, http.StatusOK, info, err)
}

// handleJobResult serves a finished job's estimate with the exact body
// and headers of the synchronous /v1/estimate path.
func (s *Service) handleJobResult(w http.ResponseWriter, r *http.Request) {
	if _, err := s.pollJob(r); err != nil {
		writeError(w, err)
		return
	}
	res, err := s.JobResult(r.PathValue("id"))
	writeResult(w, res, err)
}

func (s *Service) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	info, err := s.CancelJob(r.PathValue("id"))
	reply(w, http.StatusOK, info, err)
}

// Serve runs the API on ln until ctx is canceled, then shuts down
// gracefully: in-flight requests get grace to finish, the worker pool
// drains, and the listener closes. The caller binds the port — cmd/sgserve
// on ":0" must know the bound address (and write it to an -addr-file)
// before serving; tests use Handler with httptest instead. Serve owns ln
// and the service: both are closed before it returns.
func (s *Service) Serve(ctx context.Context, ln net.Listener, grace time.Duration) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		s.Close() // listener failure: don't leak the worker pool
		return err
	case <-ctx.Done():
	}
	if grace <= 0 {
		grace = 10 * time.Second
	}
	sctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := srv.Shutdown(sctx)
	s.Close()
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
