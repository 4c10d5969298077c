package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/cluster"
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
// membership/health snapshot plus this replica's forwarding counters.
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
	resp, err := s.postPeer(r.Context(), home, path, req)
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
// ctx, the caller's own context, ended first. The caller hands a returned
// response to doneForward.
func (s *Service) postPeer(ctx context.Context, addr, path string, v any) (*http.Response, error) {
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
		s.cluster.ReportSuccess(addr)
	case ctx.Err() == nil:
		s.cluster.ReportFailure(addr, err)
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
	}
	for _, p := range st.Peers {
		st.Forwards += p.Forwards
		st.ForwardErrors += p.Failures
	}
	return st
}
