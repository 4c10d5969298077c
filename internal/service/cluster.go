package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/durable"
)

// forwardHeader marks a request as already forwarded once, carrying the
// origin replica's address. A replica receiving it always executes the
// request locally — even if its own ring view disagrees about the home —
// so a forward can never loop, and transient membership-view skew
// degrades to one extra hop, never a cycle.
const forwardHeader = "X-Subgraph-Forward"

// homeHeader tells the client which replica actually served a forwarded
// request, for debugging and for the benchmark's forward-hop probe.
const homeHeader = "X-Subgraph-Home"

// ClusterStats is the /v1/stats cluster section: the cluster layer's
// membership/health snapshot plus this replica's forwarding and handoff
// counters.
type ClusterStats struct {
	cluster.Stats
	// Forwards counts requests this replica proxied to their home.
	Forwards uint64 `json:"forwards"`
	// ForwardErrors counts transport-level forward failures (the request
	// then ran locally).
	ForwardErrors uint64 `json:"forwardErrors"`
	// LocalFallbacks counts non-owned requests served locally because the
	// home was unreachable, unhealthy, or circuit-broken.
	LocalFallbacks uint64 `json:"localFallbacks"`
	// ForwardedServed counts requests that arrived with a forward header
	// (another replica proxied them here).
	ForwardedServed uint64 `json:"forwardedServed"`
	// HandoffExported / HandoffImported count trial runs shipped to new
	// homes and received from old ones during rebalancing.
	HandoffExported uint64 `json:"handoffExported"`
	HandoffImported uint64 `json:"handoffImported"`
	// HandoffActive reports an import replay in progress (readyz is 503
	// while it runs).
	HandoffActive bool `json:"handoffActive"`
}

// newForwardClient builds the proxy client: dials fail fast (a dead
// home must cost ~1s, not a kernel TCP timeout, before the local
// fallback kicks in) while response reads stay unbounded — a forwarded
// cache miss legitimately runs the solver on the home.
func newForwardClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: time.Second}).DialContext,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     30 * time.Second,
		},
	}
}

// routeKey computes a request's trial-stream key for ring routing,
// without submitting anything: the same normalize → algorithm → query →
// fingerprint pipeline submitJob runs, projected to the TrialKey. The
// boolean is false when the request cannot be routed (malformed, or the
// graph is not registered locally) — those requests are served locally,
// where the real path produces the proper error.
func (s *Service) routeKey(req EstimateRequest) (TrialKey, bool) {
	nreq, err := s.normalize(req)
	if err != nil {
		return TrialKey{}, false
	}
	alg, err := ParseAlgorithm(nreq.Algorithm)
	if err != nil {
		return TrialKey{}, false
	}
	q, err := buildQuery(nreq)
	if err != nil {
		return TrialKey{}, false
	}
	h, ok := s.reg.Acquire(nreq.Graph)
	if !ok {
		return TrialKey{}, false
	}
	defer h.Release()
	return s.key(h.Fingerprint(), q, alg, nreq).TrialKey(), true
}

// hash folds every TrialKey field into the FNV-1a value the ring places
// keys by. Every replica — across restarts and versions — must compute
// the same value for the same key, or a key's home moves and its cached
// runs are stranded; the bytes hashed here are frozen.
func (k TrialKey) hash() uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], k.Graph)
	h.Write(b[:])
	io.WriteString(h, k.Query) //nolint:errcheck // fnv never fails
	binary.LittleEndian.PutUint64(b[:], uint64(k.Algorithm))
	h.Write(b[:])
	io.WriteString(h, k.Backend) //nolint:errcheck // fnv never fails
	h.Write([]byte{0})           // terminator: Backend and the next field must not blur
	binary.LittleEndian.PutUint64(b[:], uint64(k.Seed))
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(k.Ranks))
	h.Write(b[:])
	return h.Sum64()
}

// maybeForward routes one estimate/job request: if the cluster says its
// trial stream belongs to another replica that looks reachable, the
// request is proxied there and the response relayed verbatim (true).
// Everything else — single-node mode, owned keys, already-forwarded
// requests (the loop guard), unroutable requests, and homes that are
// down or circuit-broken — is served locally (false). Local execution
// of a non-owned key is deliberate degradation: the answer is still
// bit-identical (trials are deterministic everywhere), it just costs a
// duplicate computation instead of an error or a hang.
func (s *Service) maybeForward(w http.ResponseWriter, r *http.Request, path string, req EstimateRequest) bool {
	if s.cluster == nil {
		return false
	}
	if r.Header.Get(forwardHeader) != "" {
		s.clForwardedServed.Add(1)
		return false
	}
	tk, ok := s.routeKey(req)
	if !ok {
		return false
	}
	home := s.cluster.Owner(tk.hash())
	if s.cluster.IsSelf(home) {
		return false
	}
	if !s.cluster.Allow(home) {
		s.clLocalFallbacks.Add(1)
		return false
	}
	if s.forward(w, r, home, path, req) {
		return true
	}
	s.clLocalFallbacks.Add(1)
	return false
}

// forward proxies one request to its home replica and relays the
// response. Returns false (nothing written) on transport failure, so
// the caller falls back to local execution; the failure feeds the
// home's circuit breaker. A failure caused by the client's own context
// is not the peer's fault — it is reported to the client directly.
func (s *Service) forward(w http.ResponseWriter, r *http.Request, home, path string, req EstimateRequest) bool {
	body, err := json.Marshal(req)
	if err != nil {
		return false
	}
	freq, err := http.NewRequestWithContext(r.Context(), http.MethodPost, "http://"+home+path, bytes.NewReader(body))
	if err != nil {
		return false
	}
	freq.Header.Set("Content-Type", "application/json")
	freq.Header.Set(forwardHeader, s.cluster.Self())
	resp, err := s.fwd.Do(freq)
	if err != nil {
		if r.Context().Err() != nil {
			writeError(w, r.Context().Err())
			return true
		}
		s.cluster.ReportFailure(home)
		s.clForwardErrors.Add(1)
		s.logger.Warn("cluster: forward failed; serving locally", "home", home, "path", path, "err", err)
		return false
	}
	defer resp.Body.Close()
	s.cluster.ReportSuccess(home)
	s.clForwards.Add(1)
	for _, h := range []string{"Content-Type", "X-Cache", "X-Elapsed-Ms", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	if loc := resp.Header.Get("Location"); loc != "" {
		// The job lives on its home replica; hand the client an absolute
		// URL so polls go straight there instead of 404ing here.
		w.Header().Set("Location", "http://"+home+loc)
	}
	w.Header().Set(homeHeader, home)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck // client gone; nothing to do
	return true
}

// handleReadyz is the readiness probe, distinct from /healthz liveness:
// 503 while a handoff replay is importing runs (peers and routers must
// not prefer a replica mid-warm). Boot replay needs no flag here — it
// runs inside Open before the listener binds, so during it a prober
// sees connection refused, which is the same "not ready" answer.
func (s *Service) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.handoffActive.Load() > 0 {
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "replaying handoff",
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ready",
		"uptimeSeconds": time.Since(s.start).Seconds(),
	})
}

// maxHandoffBody bounds one handoff import request (64 MiB): run
// batches are peer-to-peer, but the endpoint still must not be a
// memory-exhaustion vector.
const maxHandoffBody = 64 << 20

// handleClusterImport receives trial runs from a peer rebalancing its
// keys toward this replica: each run lands in the cache (longest-wins
// merge, so re-imports are idempotent) and the durable log. The replica
// reports itself unready (/readyz 503) while the replay runs.
func (s *Service) handleClusterImport(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Runs []durable.RunRecord `json:"runs"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxHandoffBody))
	if err := dec.Decode(&body); err != nil {
		writeError(w, fmt.Errorf("service: bad handoff body: %w", err))
		return
	}
	s.handoffActive.Add(1)
	defer s.handoffActive.Add(-1)
	for _, rec := range body.Runs {
		tk := trialKeyOf(rec)
		run := TrialRun{Counts: rec.Counts, Stats: rec.Stats}
		s.cache.Put(tk, run)
		s.persistRun(tk, run)
	}
	s.clHandoffImported.Add(uint64(len(body.Runs)))
	s.logger.Info("cluster: handoff imported", "runs", len(body.Runs), "from", r.Header.Get(forwardHeader))
	writeJSON(w, http.StatusOK, map[string]any{"imported": len(body.Runs)})
}

// handleClusterRebalance pushes every locally-held trial run whose home
// is another replica to that home — the membership-change hook: after
// replicas are added or removed, POST /v1/cluster/rebalance on each
// survivor ships each key's accumulated (and durably logged) trials to
// its new owner, which then serves them as warm cache hits. The durable
// log, not just the live cache, is the export source when configured:
// it also holds streams the cache has evicted.
func (s *Service) handleClusterRebalance(w http.ResponseWriter, r *http.Request) {
	merged := make(map[TrialKey]TrialRun)
	for _, e := range s.cache.Export() {
		merged[e.Key] = e.Run
	}
	if s.durable != nil {
		// Flush so runs accepted before this call are on disk, then read
		// the files back read-only; the live writer keeps appending.
		s.durable.Flush()
		recs, err := durable.ReadRuns(s.opts.Durability.Dir)
		if err != nil {
			writeError(w, err)
			return
		}
		for _, rec := range recs {
			tk := trialKeyOf(rec)
			if cur, ok := merged[tk]; !ok || len(rec.Counts) > cur.Len() {
				merged[tk] = TrialRun{Counts: rec.Counts, Stats: rec.Stats}
			}
		}
	}
	byHome := make(map[string][]durable.RunRecord)
	kept := 0
	for tk, run := range merged {
		home := s.cluster.Owner(tk.hash())
		if s.cluster.IsSelf(home) {
			kept++
			continue
		}
		byHome[home] = append(byHome[home], runRecord(tk, run))
	}
	exported := 0
	peerResults := make(map[string]string)
	for home, runs := range byHome {
		if !s.cluster.Allow(home) {
			peerResults[home] = fmt.Sprintf("skipped: peer unavailable (%d runs)", len(runs))
			continue
		}
		if err := s.pushRuns(r, home, runs); err != nil {
			s.cluster.ReportFailure(home)
			peerResults[home] = "error: " + err.Error()
			s.logger.Warn("cluster: handoff push failed", "home", home, "runs", len(runs), "err", err)
			continue
		}
		s.cluster.ReportSuccess(home)
		exported += len(runs)
		s.clHandoffExported.Add(uint64(len(runs)))
		peerResults[home] = fmt.Sprintf("exported %d runs", len(runs))
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"exported": exported,
		"kept":     kept,
		"peers":    peerResults,
	})
}

// pushRuns ships one batch of runs to a peer's import endpoint.
func (s *Service) pushRuns(r *http.Request, home string, runs []durable.RunRecord) error {
	body, err := json.Marshal(map[string]any{"runs": runs})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, "http://"+home+"/v1/cluster/runs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardHeader, s.cluster.Self())
	resp, err := s.fwd.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("peer returned %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return nil
}

// clusterStats assembles the /v1/stats cluster section; nil outside
// cluster mode.
func (s *Service) clusterStats() *ClusterStats {
	if s.cluster == nil {
		return nil
	}
	return &ClusterStats{
		Stats:           s.cluster.Stats(),
		Forwards:        s.clForwards.Load(),
		ForwardErrors:   s.clForwardErrors.Load(),
		LocalFallbacks:  s.clLocalFallbacks.Load(),
		ForwardedServed: s.clForwardedServed.Load(),
		HandoffExported: s.clHandoffExported.Load(),
		HandoffImported: s.clHandoffImported.Load(),
		HandoffActive:   s.handoffActive.Load() > 0,
	}
}
