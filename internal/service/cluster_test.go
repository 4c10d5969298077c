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
)

// replica is one cluster member under test: a real service behind a real
// listener (forwards dial actual TCP addresses, so httptest's shared
// in-process server is not enough here).
type replica struct {
	addr string
	svc  *subgraph.Service
	srv  *http.Server
	ln   net.Listener
}

// startReplicas binds n listeners first (so the full membership is known
// before any ring is built), then starts one service per address with a
// cluster view over that membership. Health checking is disabled: peers
// stay optimistic and only the forward-path breaker reacts to failures,
// which keeps the tests deterministic and sleep-free.
func startReplicas(t *testing.T, n int) []*replica {
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
		cl, err := subgraph.NewCluster(subgraph.ClusterOptions{
			Self:        rep.addr,
			Members:     addrs,
			HealthEvery: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
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

// TestClusterHomeDownFallsBackLocally kills one replica and checks the
// degraded-but-available contract: requests homed on the dead member
// still answer through a survivor — identically to before the kill —
// and after enough failures the breaker opens so later requests skip
// the dead host without dialing it.
func TestClusterHomeDownFallsBackLocally(t *testing.T) {
	reps := startReplicas(t, 3)
	entry := reps[0]

	// Find a request homed on another replica, and remember its answer.
	var victim *replica
	var seed int
	var want []byte
	for s := 100; s < 140; s++ {
		raw, hdr := clusterPost(t, entry.addr, "/v1/estimate", estimateBody(s), http.StatusOK, nil)
		if home := hdr.Get("X-Subgraph-Home"); home != "" {
			for _, rep := range reps {
				if rep.addr == home {
					victim = rep
				}
			}
			seed, want = s, raw
			break
		}
	}
	if victim == nil {
		t.Fatal("no seed in [100,140) hashed to a remote home")
	}

	victim.srv.Close()

	// The home is gone; the entry must serve the key locally, fast, with
	// the identical body (trials are deterministic everywhere).
	for i := 0; i < 4; i++ {
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

	st := entry.svc.Stats()
	if st.Cluster.LocalFallbacks == 0 {
		t.Error("no local fallbacks counted after home died")
	}
	if st.Cluster.ForwardErrors == 0 {
		t.Error("no forward errors counted after home died")
	}
	var tripped bool
	for _, p := range st.Cluster.Peers {
		if p.Addr == victim.addr && p.Trips > 0 {
			tripped = true
		}
	}
	if !tripped {
		t.Errorf("breaker for dead peer %s never tripped; peers: %+v", victim.addr, st.Cluster.Peers)
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

// TestClusterRebalanceHandsOffRuns computes keys on the "wrong" replica
// (via the loop-guard header), rebalances, and checks every key then
// serves as a warm cache hit through any entry — the runs moved to
// their homes.
func TestClusterRebalanceHandsOffRuns(t *testing.T) {
	reps := startReplicas(t, 3)
	entry := reps[0]

	const n = 8
	hdrs := http.Header{}
	hdrs.Set("X-Subgraph-Forward", "10.9.9.9:1")
	for seed := 300; seed < 300+n; seed++ {
		clusterPost(t, entry.addr, "/v1/estimate", estimateBody(seed), http.StatusOK, hdrs)
	}

	raw, _ := clusterPost(t, entry.addr, "/v1/cluster/rebalance", "", http.StatusOK, nil)
	var reb struct {
		Exported int               `json:"exported"`
		Kept     int               `json:"kept"`
		Peers    map[string]string `json:"peers"`
	}
	if err := json.Unmarshal(raw, &reb); err != nil {
		t.Fatal(err)
	}
	if reb.Exported == 0 {
		t.Fatalf("rebalance exported 0 runs (kept %d, peers %v) — all %d keys homed here is implausible", reb.Kept, reb.Peers, n)
	}
	if reb.Exported+reb.Kept != n {
		t.Errorf("exported %d + kept %d != %d runs; peers %v", reb.Exported, reb.Kept, n, reb.Peers)
	}

	// Every key is now warm at its home: requests through another entry
	// must all be cache hits — zero new computation anywhere.
	for seed := 300; seed < 300+n; seed++ {
		_, hdr := clusterPost(t, reps[1].addr, "/v1/estimate", estimateBody(seed), http.StatusOK, nil)
		if hdr.Get("X-Cache") != "HIT" {
			t.Errorf("seed %d after rebalance: X-Cache = %q, want HIT", seed, hdr.Get("X-Cache"))
		}
	}
	var imported uint64
	for _, rep := range reps[1:] {
		imported += rep.svc.Stats().Cluster.HandoffImported
	}
	if imported != uint64(reb.Exported) {
		t.Errorf("peers imported %d runs, exporter shipped %d", imported, reb.Exported)
	}
	if got := entry.svc.Stats().Cluster.HandoffExported; got != uint64(reb.Exported) {
		t.Errorf("exporter counter = %d, response said %d", got, reb.Exported)
	}
}

// TestClusterReadyz: ready replicas answer 200 with uptime; /healthz
// stays the liveness probe.
func TestClusterReadyz(t *testing.T) {
	reps := startReplicas(t, 3)
	client := &http.Client{Timeout: 5 * time.Second}
	for _, rep := range reps {
		resp, err := client.Get("http://" + rep.addr + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Status string `json:"status"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || body.Status != "ready" {
			t.Errorf("%s /readyz = %d %q, want 200 ready", rep.addr, resp.StatusCode, body.Status)
		}
	}
}
