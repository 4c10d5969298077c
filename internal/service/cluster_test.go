package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	subgraph "repro"
	"repro/internal/cluster"
)

// replica is one cluster member under test: a real service behind a real
// listener (forwards dial actual TCP addresses, so httptest's shared
// in-process server is not enough here).
type replica struct {
	addr string
	svc  *subgraph.Service
	srv  *http.Server
	ln   net.Listener
	cl   *subgraph.ClusterView
}

// startReplicas binds n listeners first (so the full membership is known
// before any ring is built), then starts one service per address with a
// cluster view over that membership. The background health checker is
// off: peers start up and only forward outcomes (or a CheckOnce the test
// makes) move their liveness, which keeps the tests deterministic and
// sleep-free. probe, when non-nil, stands in for every view's health
// probe.
func startReplicas(t *testing.T, n int, probe ...func(addr string) error) []*replica {
	t.Helper()
	reps := make([]*replica, n)
	addrs := make([]string, n)
	for i := range reps {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = &replica{ln: ln, addr: ln.Addr().String()}
		addrs[i] = reps[i].addr
	}
	for _, rep := range reps {
		opts := subgraph.ClusterOptions{Self: rep.addr, Members: addrs, HealthEvery: -1}
		if len(probe) > 0 {
			opts.Probe = probe[0]
		}
		cl, err := subgraph.NewCluster(opts)
		if err != nil {
			t.Fatal(err)
		}
		rep.cl = cl
		rep.svc = subgraph.NewService(subgraph.ServiceOptions{Workers: 2, Cluster: cl})
		rep.srv = &http.Server{Handler: rep.svc.Handler()}
		go rep.srv.Serve(rep.ln) //nolint:errcheck // closed on cleanup
		t.Cleanup(func() {
			rep.srv.Close()
			rep.svc.Close()
			cl.Close()
		})
	}
	for _, rep := range reps {
		clusterPost(t, rep.addr, "/v1/graphs",
			`{"standin":"enron","scale":256,"seed":1,"name":"g"}`, http.StatusOK, nil)
	}
	return reps
}

// clusterPost issues one POST against a replica by address, with an
// overall timeout so a routing bug shows up as a test failure, not a
// hang. extra headers are applied to the request when non-nil.
func clusterPost(t *testing.T, addr, path, body string, wantStatus int, extra http.Header) ([]byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+path, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vs := range extra {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("POST %s%s: %v", addr, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s%s: status %d, want %d; body: %s", addr, path, resp.StatusCode, wantStatus, raw)
	}
	return raw, resp.Header
}

func estimateBody(seed int) string {
	return fmt.Sprintf(`{"graph":"g","query":"glet1","trials":2,"seed":%d}`, seed)
}

// TestClusterBitIdenticalThroughAnyEntry is the tentpole contract: the
// same request through every entry replica returns byte-identical
// estimate bodies, and the trial stream is computed exactly once
// cluster-wide — the two non-home entries forward to the home and serve
// its cached result.
func TestClusterBitIdenticalThroughAnyEntry(t *testing.T) {
	reps := startReplicas(t, 3)

	var bodies [][]byte
	homes := make(map[string]int)
	for _, rep := range reps {
		raw, hdr := clusterPost(t, rep.addr, "/v1/estimate", estimateBody(11), http.StatusOK, nil)
		bodies = append(bodies, raw)
		if home := hdr.Get("X-Subgraph-Home"); home != "" {
			homes[home]++
			if home == rep.addr {
				t.Errorf("entry %s reports itself as forward home", rep.addr)
			}
		}
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Errorf("entry %d body differs:\n%s\nvs\n%s", i, bodies[0], bodies[i])
		}
	}

	// Exactly one home, credited with the two forwarded requests.
	if len(homes) != 1 {
		t.Fatalf("forwarded responses named %d homes %v, want exactly 1", len(homes), homes)
	}
	var misses, hits, forwards, forwardedServed uint64
	for _, rep := range reps {
		st := rep.svc.Stats()
		misses += st.Cache.Misses
		hits += st.Cache.Hits
		if st.Cluster == nil {
			t.Fatal("stats missing cluster section")
		}
		forwards += st.Cluster.Forwards
		forwardedServed += st.Cluster.ForwardedServed
	}
	if misses != 1 {
		t.Errorf("cluster-wide cache misses = %d, want 1 (one computation)", misses)
	}
	if hits != 2 {
		t.Errorf("cluster-wide cache hits = %d, want 2", hits)
	}
	if forwards != 2 || forwardedServed != 2 {
		t.Errorf("forwards = %d, forwardedServed = %d, want 2 and 2", forwards, forwardedServed)
	}
}

// TestClusterForwardedJobLocationIsAbsolute submits a job through a
// non-home entry and follows the rewritten absolute Location to the home
// replica, where the job must be addressable and finish with the same
// body a direct estimate returns.
func TestClusterForwardedJobLocationIsAbsolute(t *testing.T) {
	reps := startReplicas(t, 3)

	// Find a seed whose home is not the entry replica (two in three seeds
	// qualify; the scan is deterministic given the fixed membership order
	// is not — so just scan).
	entry := reps[0]
	var loc string
	for seed := 20; seed < 60; seed++ {
		raw, hdr := clusterPost(t, entry.addr, "/v1/jobs", estimateBody(seed), http.StatusAccepted, nil)
		if home := hdr.Get("X-Subgraph-Home"); home != "" {
			loc = hdr.Get("Location")
			if loc == "" {
				t.Fatalf("forwarded job accepted with no Location; body: %s", raw)
			}
			if want := "http://" + home + "/v1/jobs/"; len(loc) <= len(want) || loc[:len(want)] != want {
				t.Fatalf("Location = %q, want absolute URL prefixed %q", loc, want)
			}
			break
		}
	}
	if loc == "" {
		t.Fatal("no seed in [20,60) hashed to a remote home; ring is suspiciously degenerate")
	}

	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(loc + "?wait=20s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job struct {
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	if job.State != "done" {
		t.Fatalf("job at %s state = %q, want done", loc, job.State)
	}
}

// remoteSeed returns the first seed from lo whose estimate, entered at
// entry, is forwarded, with the replica that served it and the body.
func remoteSeed(t *testing.T, reps []*replica, entry *replica, lo int) (int, *replica, []byte) {
	t.Helper()
	for s := lo; s < lo+40; s++ {
		raw, hdr := clusterPost(t, entry.addr, "/v1/estimate", estimateBody(s), http.StatusOK, nil)
		for _, rep := range reps {
			if rep.addr == hdr.Get("X-Subgraph-Home") {
				return s, rep, raw
			}
		}
	}
	t.Fatalf("no seed in [%d,%d) hashed to a remote home", lo, lo+40)
	return 0, nil, nil
}

// peerState returns entry's view of peer addr.
func peerState(t *testing.T, entry *replica, addr string) subgraph.ClusterServiceStats {
	t.Helper()
	st := entry.svc.Stats().Cluster
	for _, p := range st.Peers {
		if p.Addr == addr {
			st.Peers = []cluster.PeerStats{p}
			return *st
		}
	}
	t.Fatalf("%s is not a peer of %s", addr, entry.addr)
	return *st
}

// TestClusterHomeDownFallsBackLocally kills one replica and checks the
// degraded-but-available contract: requests homed on the dead member
// still answer through a survivor — identically to before the kill — and
// the one forward that finds the home dead marks it down, so later
// requests skip it without dialing it.
func TestClusterHomeDownFallsBackLocally(t *testing.T) {
	reps := startReplicas(t, 3)
	entry := reps[0]
	seed, victim, want := remoteSeed(t, reps, entry, 100)

	victim.srv.Close()

	// The home is gone; the entry must serve the key locally, fast, with
	// the identical body (trials are deterministic everywhere).
	const n = 4
	for i := 0; i < n; i++ {
		start := time.Now()
		raw, hdr := clusterPost(t, entry.addr, "/v1/estimate", estimateBody(seed), http.StatusOK, nil)
		if !bytes.Equal(raw, want) {
			t.Fatalf("fallback body differs from pre-kill body:\n%s\nvs\n%s", raw, want)
		}
		if home := hdr.Get("X-Subgraph-Home"); home != "" {
			t.Fatalf("request after kill reports forward home %s", home)
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Fatalf("fallback request took %s — dead home is not failing fast", d)
		}
	}

	st := peerState(t, entry, victim.addr)
	if st.LocalFallbacks != n {
		t.Errorf("%d local fallbacks after the home died, want %d", st.LocalFallbacks, n)
	}
	if st.ForwardErrors != 1 || st.Peers[0].Failures != 1 {
		t.Errorf("%d forward errors (peer: %d), want exactly 1: later requests must not dial the dead home",
			st.ForwardErrors, st.Peers[0].Failures)
	}
	if st.Peers[0].Up {
		t.Errorf("dead peer %s still reads up: %+v", victim.addr, st.Peers[0])
	}
}

// TestClusterLivenessFollowsProbeAndForwards drives one peer's liveness
// bit through a stand-in probe that always passes. While the peer's
// forwards fail, each probe round lets through at most one forward,
// which finds it dead; once the peer serves again, one passed probe
// gives it its keys back.
func TestClusterLivenessFollowsProbeAndForwards(t *testing.T) {
	reps := startReplicas(t, 3, func(string) error { return nil })
	entry := reps[0]
	seed, victim, want := remoteSeed(t, reps, entry, 100)

	victim.srv.Close() // its stand-in health probe still passes
	const rounds, perRound = 3, 3
	for r := 1; r <= rounds; r++ {
		entry.cl.CheckOnce()
		for i := 0; i < perRound; i++ {
			raw, hdr := clusterPost(t, entry.addr, "/v1/estimate", estimateBody(seed), http.StatusOK, nil)
			if home := hdr.Get("X-Subgraph-Home"); home != "" || !bytes.Equal(raw, want) {
				t.Fatalf("round %d: served by %q with body %s, want local with %s", r, home, raw, want)
			}
		}
		if st := peerState(t, entry, victim.addr); st.ForwardErrors != uint64(r) || st.Peers[0].Up {
			t.Fatalf("after %d probe rounds: %d forward errors, up=%v; want %d and down",
				r, st.ForwardErrors, st.Peers[0].Up, r)
		}
	}

	// The peer serves again on its address. It stays down, and its key
	// stays local, until a probe passes.
	ln, err := net.Listen("tcp", victim.addr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", victim.addr, err)
	}
	srv := &http.Server{Handler: victim.svc.Handler()}
	go srv.Serve(ln) //nolint:errcheck // closed on cleanup
	t.Cleanup(func() { srv.Close() })
	if _, hdr := clusterPost(t, entry.addr, "/v1/estimate", estimateBody(seed), http.StatusOK, nil); hdr.Get("X-Subgraph-Home") != "" {
		t.Fatal("a down peer got a forward before any probe passed")
	}
	entry.cl.CheckOnce()
	raw, hdr := clusterPost(t, entry.addr, "/v1/estimate", estimateBody(seed), http.StatusOK, nil)
	if home := hdr.Get("X-Subgraph-Home"); home != victim.addr || !bytes.Equal(raw, want) {
		t.Fatalf("after one passed probe: served by %q, want %s with the same body", home, victim.addr)
	}
	if st := peerState(t, entry, victim.addr); !st.Peers[0].Up || st.ForwardErrors != rounds {
		t.Errorf("recovered peer: up=%v, %d forward errors; want up and %d", st.Peers[0].Up, st.ForwardErrors, rounds)
	}
}

// TestClusterLoopGuard: a request carrying the forward header is always
// served locally, whatever the ring says — the property that makes
// forwarding loop-free under membership-view skew.
func TestClusterLoopGuard(t *testing.T) {
	reps := startReplicas(t, 3)
	entry := reps[0]

	hdrs := http.Header{}
	hdrs.Set("X-Subgraph-Forward", "10.9.9.9:1")
	for seed := 200; seed < 206; seed++ {
		_, hdr := clusterPost(t, entry.addr, "/v1/estimate", estimateBody(seed), http.StatusOK, hdrs)
		if home := hdr.Get("X-Subgraph-Home"); home != "" {
			t.Fatalf("forwarded request was re-forwarded to %s", home)
		}
	}
	st := entry.svc.Stats()
	if st.Cluster.ForwardedServed != 6 {
		t.Errorf("forwardedServed = %d, want 6", st.Cluster.ForwardedServed)
	}
	if st.Cluster.Forwards != 0 {
		t.Errorf("forwards = %d, want 0 — loop guard must not re-forward", st.Cluster.Forwards)
	}
	if st.Cache.Misses != 6 {
		t.Errorf("entry computed %d misses, want 6 (all served locally)", st.Cache.Misses)
	}
}

// TestClusterHealthzIsTheOneProbe: every replica answers /healthz 200,
// which is what the ring's default prober reads, and the membership-change
// routes — the run import, the rebalance and the readiness probe that
// reported an import in flight — are not served. The default prober then
// reads live peers up and a replica whose listener closed down.
func TestClusterHealthzIsTheOneProbe(t *testing.T) {
	reps := startReplicas(t, 3)
	client := &http.Client{Timeout: 5 * time.Second}
	for _, rep := range reps {
		for _, c := range []struct {
			method, path string
			want         int
		}{
			{http.MethodGet, "/healthz", http.StatusOK},
			{http.MethodGet, "/readyz", http.StatusNotFound},
			{http.MethodPost, "/v1/cluster/runs", http.StatusNotFound},
			{http.MethodPost, "/v1/cluster/rebalance", http.StatusNotFound},
		} {
			req, err := http.NewRequest(c.method, "http://"+rep.addr+c.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Errorf("%s %s%s = %d, want %d", c.method, rep.addr, c.path, resp.StatusCode, c.want)
			}
		}
	}
	reps[2].srv.Close()
	reps[0].cl.CheckOnce()
	for _, p := range reps[0].cl.Stats().Peers {
		if want := p.Addr != reps[2].addr; p.Up != want {
			t.Errorf("after a probe round %s reads up=%v (%q), want %v", p.Addr, p.Up, p.LastError, want)
		}
	}
}

// TestClusterResolvesEachRequestOnce: a request served where it lands takes
// one registry lease — the ring route and the job share one resolution —
// and a batch of N items takes N+1 (the batch's own lease, then one per
// item).
func TestClusterResolvesEachRequestOnce(t *testing.T) {
	rep := startReplicas(t, 1)[0] // a one-member ring homes every key here
	hits := func() uint64 { return rep.svc.Stats().Registry.Hits }
	for i, c := range []struct {
		path, body string
		status     int
		want       uint64
	}{
		{"/v1/estimate", estimateBody(1), http.StatusOK, 1},
		{"/v1/estimate", estimateBody(1), http.StatusOK, 1}, // a cache hit
		{"/v1/jobs", estimateBody(2), http.StatusAccepted, 1},
		{"/v1/batch", `{"graph":"g","trials":2,"seed":3,"queries":[{"query":"glet1"},{"query":"path3"},{"query":"cycle4"}]}`, http.StatusOK, 4},
	} {
		before := hits()
		clusterPost(t, rep.addr, c.path, c.body, c.status, nil)
		if got := hits() - before; got != c.want {
			t.Errorf("request %d (%s) took %d registry leases, want %d", i, c.path, got, c.want)
		}
	}
}
