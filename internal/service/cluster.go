package service

import (
	"bytes"
	"context"
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
	// Forwards counts requests this replica proxied to their home: the
	// peers' Forwards summed.
	Forwards uint64 `json:"forwards" metric:"cluster_forwards_total" help:"Requests proxied to their ring-home replica."`
	// ForwardErrors counts transport-level forward failures (the request
	// then ran locally): the peers' Failures summed.
	ForwardErrors uint64 `json:"forwardErrors" metric:"cluster_forward_errors_total" help:"Transport-level forward failures (request then ran locally)."`
	// LocalFallbacks counts non-owned requests served locally because the
	// home was down or the forward to it failed.
	LocalFallbacks uint64 `json:"localFallbacks" metric:"cluster_local_fallbacks_total" help:"Non-owned requests served locally because their home was unavailable."`
	// ForwardedServed counts requests that arrived with a forward header
	// (another replica proxied them here).
	ForwardedServed uint64 `json:"forwardedServed" metric:"cluster_forwarded_served_total" help:"Requests served here after another replica forwarded them."`
	// HandoffExported / HandoffImported count trial runs shipped to new
	// homes and received from old ones during rebalancing.
	HandoffExported uint64 `json:"handoffExported" metric:"cluster_handoff_exported_total" help:"Trial runs pushed to their new home during rebalancing."`
	HandoffImported uint64 `json:"handoffImported" metric:"cluster_handoff_imported_total" help:"Trial runs received from a peer during rebalancing."`
	// HandoffActive reports an import replay in progress (readyz is 503
	// while it runs).
	HandoffActive bool `json:"handoffActive" metric:"cluster_handoff_active" help:"Whether a handoff replay is importing runs right now (readyz is 503)."`
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

// ringHash folds every TrialKey field into the FNV-1a value the ring
// places keys by. Every replica — across restarts and versions — must
// compute the same value for the same key, or a key's home moves and its
// cached runs are stranded; the bytes hashed here are frozen.
func ringHash(k TrialKey) uint64 {
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

// admit decodes and resolves one estimate/job request and routes it: if
// the cluster says its trial stream belongs to another replica that looks
// reachable, the request is proxied there and the response relayed
// verbatim. Everything else — single-node mode, owned keys,
// already-forwarded requests (the loop guard), and homes that are down —
// is served locally with the returned request, whose lease the caller
// takes over. False means the response is written: the body did not
// decode, the request did not resolve, or it was forwarded.
// Local execution of a non-owned key is deliberate degradation: the
// answer is still bit-identical (trials are deterministic everywhere), it
// just costs a duplicate computation instead of an error or a hang.
func (s *Service) admit(w http.ResponseWriter, r *http.Request, path string) (resolved, bool) {
	var req EstimateRequest
	if !decodeBody(w, r, &req) {
		return resolved{}, false
	}
	forwarded := s.cluster != nil && r.Header.Get(forwardHeader) != ""
	if forwarded {
		s.clForwardedServed.Add(1)
	}
	rr, err := s.resolve(req)
	if err != nil {
		writeError(w, err)
		return resolved{}, false
	}
	if s.cluster == nil || forwarded {
		return rr, true
	}
	home := s.cluster.Owner(ringHash(rr.key.TrialKey()))
	if s.cluster.IsSelf(home) {
		return rr, true
	}
	// The lease is held through the forward: a failed one falls back to
	// serving the request here.
	if s.cluster.Allow(home) && s.forward(w, r, home, path, req) {
		rr.h.Release()
		return resolved{}, false
	}
	s.clLocalFallbacks.Add(1)
	return rr, true
}

// forward proxies one request to its home replica and relays the
// response. Returns false (nothing written) on transport failure, so
// the caller falls back to local execution; the failure marks the home
// down. A failure caused by the client's own context is not the peer's
// fault — it is reported to the client directly.
func (s *Service) forward(w http.ResponseWriter, r *http.Request, home, path string, req EstimateRequest) bool {
	resp, err := s.postPeer(r.Context(), home, path, req, true)
	if err != nil {
		if r.Context().Err() != nil {
			writeError(w, r.Context().Err())
			return true
		}
		s.logger.Warn("cluster: forward failed; serving locally", "home", home, "path", path, "err", err)
		return false
	}
	defer s.doneForward(resp)
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

// postPeer POSTs v as JSON to path on peer addr, marked as forwarded by
// this replica, and records what the attempt says about the peer's
// liveness: a response marks it up, a transport failure down — unless
// ctx, the caller's own context, ended first. forward says whether the
// POST counts in the peer's forward tallies (a handoff push does not).
// The caller hands a returned response to doneForward.
func (s *Service) postPeer(ctx context.Context, addr, path string, v any, forward bool) (*http.Response, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardHeader, s.cluster.Self())
	resp, err := s.fwd.Do(req)
	switch {
	case err == nil:
		s.cluster.ReportSuccess(addr, forward)
	case ctx.Err() == nil:
		s.cluster.ReportFailure(addr, err, forward)
	}
	return resp, err
}

// doneForward closes the body of a response from a peer, which hands its
// connection back to the forward client's pool, and empties the pool again
// if the service has begun to close: Close empties it once, and a forward
// in flight then would leave its connection idling for the client's idle
// timeout.
func (s *Service) doneForward(resp *http.Response) {
	resp.Body.Close()
	if s.closed.Load() {
		s.fwd.CloseIdleConnections()
	}
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
// merge, so re-imports are idempotent) and the durable log. A batch with
// a run that fails its Check is refused whole. The replica reports itself
// unready (/readyz 503) while the replay runs.
func (s *Service) handleClusterImport(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Runs []durable.RunRecord `json:"runs"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxHandoffBody))
	err := dec.Decode(&body)
	for i := 0; err == nil && i < len(body.Runs); i++ {
		err = body.Runs[i].Check()
	}
	if err != nil {
		writeError(w, fmt.Errorf("service: bad handoff body: %w", err))
		return
	}
	s.handoffActive.Add(1)
	defer s.handoffActive.Add(-1)
	for _, rec := range body.Runs {
		run := TrialRun{Counts: rec.Counts, Stats: rec.Stats}
		s.cache.Put(rec.Key(), run)
		s.persistRun(rec.Key(), run)
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
	runs := s.cache.Export()
	if s.durable != nil {
		// Flush so runs accepted before this call are on disk, then merge
		// the files into the cache's runs. ReadRuns only reads them; the
		// live writer keeps appending.
		s.durable.Flush()
		var err error
		if runs, err = durable.ReadRuns(s.opts.Durability.Dir, runs...); err != nil {
			writeError(w, err)
			return
		}
	}
	byHome := make(map[string][]durable.RunRecord)
	kept := 0
	for _, rec := range runs {
		home := s.cluster.Owner(ringHash(rec.Key()))
		if s.cluster.IsSelf(home) {
			kept++
			continue
		}
		byHome[home] = append(byHome[home], rec)
	}
	exported := 0
	peerResults := make(map[string]string)
	for home, runs := range byHome {
		if !s.cluster.Allow(home) {
			peerResults[home] = fmt.Sprintf("skipped: peer unavailable (%d runs)", len(runs))
			continue
		}
		if err := s.pushRuns(r, home, runs); err != nil {
			peerResults[home] = "error: " + err.Error()
			s.logger.Warn("cluster: handoff push failed", "home", home, "runs", len(runs), "err", err)
			continue
		}
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
	resp, err := s.postPeer(r.Context(), home, "/v1/cluster/runs", map[string]any{"runs": runs}, false)
	if err != nil {
		return err
	}
	defer s.doneForward(resp)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("peer returned %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return nil
}

// clusterStats assembles the /v1/stats cluster section; nil outside
// cluster mode. Forwards and ForwardErrors are the peers' tallies summed.
func (s *Service) clusterStats() *ClusterStats {
	if s.cluster == nil {
		return nil
	}
	st := &ClusterStats{
		Stats:           s.cluster.Stats(),
		LocalFallbacks:  s.clLocalFallbacks.Load(),
		ForwardedServed: s.clForwardedServed.Load(),
		HandoffExported: s.clHandoffExported.Load(),
		HandoffImported: s.clHandoffImported.Load(),
		HandoffActive:   s.handoffActive.Load() > 0,
	}
	for _, p := range st.Peers {
		st.Forwards += p.Forwards
		st.ForwardErrors += p.Failures
	}
	return st
}
