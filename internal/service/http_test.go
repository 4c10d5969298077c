package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	subgraph "repro"
	"repro/internal/coloring"
	"repro/internal/core"
)

// newServer starts a fresh service behind httptest with the "enron"
// stand-in registered as "bench", and returns the matching graph built
// directly, for comparisons against the library path.
func newServer(t *testing.T) (*httptest.Server, *subgraph.Graph) {
	t.Helper()
	svc := subgraph.NewService(subgraph.ServiceOptions{Workers: 4})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	post(t, ts, "/v1/graphs", `{"standin":"enron","scale":512,"seed":1,"name":"bench"}`, http.StatusOK)
	g, ok := subgraph.Standin("enron", 512, 1)
	if !ok {
		t.Fatal("unknown stand-in enron")
	}
	return ts, g
}

func post(t *testing.T, ts *httptest.Server, path, body string, wantStatus int) (raw []byte, header http.Header) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d; body: %s", path, resp.StatusCode, wantStatus, raw)
	}
	return raw, resp.Header
}

func get(t *testing.T, ts *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newServer(t)
	var body struct {
		Status string `json:"status"`
	}
	get(t, ts, "/healthz", &body)
	if body.Status != "ok" {
		t.Errorf("status = %q, want ok", body.Status)
	}
}

// TestEstimateMatchesLibraryBitForBit is the end-to-end contract: there is
// one estimator, so every way of asking for T trials at one seed — the
// coloring layer's Run, a Session advanced by Next or by ExtendTo at any
// parallelism, the library's Estimate with a fixed count or with a Spec
// that stops at T, and the service's sync, cached, job and batch paths —
// marshals to the same bytes.
func TestEstimateMatchesLibraryBitForBit(t *testing.T) {
	ts, g := newServer(t)
	const T, seed = 4, 9
	q, err := subgraph.QueryByName("glet1")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	marshal := func(est subgraph.Estimation, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(est)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	copts := coloring.Options{Trials: T, Seed: seed, Core: core.Options{Workers: 4}}
	session := func(advance func(*coloring.Session) error) []byte {
		t.Helper()
		sess, err := coloring.NewSession(g, q, copts)
		if err == nil {
			err = advance(sess)
		}
		if err != nil {
			t.Fatal(err)
		}
		return marshal(sess.Estimate(), nil)
	}
	served := func(path, body string, status int) []byte {
		t.Helper()
		raw, _ := post(t, ts, path, body, status)
		return bytes.TrimSpace(raw)
	}
	body := fmt.Sprintf(`{"graph":"bench","query":"glet1","trials":%d,"seed":%d}`, T, seed)
	fresh := body[:len(body)-1] + `,"noCache":true}`
	paths := []struct {
		name string
		run  func() []byte
	}{
		{"coloring.Run", func() []byte { return marshal(coloring.Run(g, q, copts)) }},
		{"Session.Next×T", func() []byte {
			return session(func(s *coloring.Session) error {
				for i := 0; i < T; i++ {
					if _, err := s.Next(ctx); err != nil {
						return err
					}
				}
				return nil
			})
		}},
		{"Session.ExtendTo/1", func() []byte {
			return session(func(s *coloring.Session) error { return s.ExtendTo(ctx, T, 1) })
		}},
		{"Session.ExtendTo/4", func() []byte {
			return session(func(s *coloring.Session) error { return s.ExtendTo(ctx, T, 4) })
		}},
		{"subgraph.Estimate/fixed", func() []byte {
			return marshal(subgraph.Estimate(g, q, subgraph.EstimateOptions{Trials: T, Seed: seed, Workers: 4}))
		}},
		{"subgraph.Estimate/spec", func() []byte {
			// A target no T trials can meet: the rule stops at its cap.
			spec := subgraph.Spec{Precision: subgraph.Precision{RelErr: 1e-9}, MaxTrials: T}
			return marshal(subgraph.Estimate(g, q, subgraph.EstimateOptions{Seed: seed, Workers: 4, Spec: spec, Parallel: 3}))
		}},
		{"service/sync", func() []byte { return served("/v1/estimate", body, http.StatusOK) }},
		{"service/cached", func() []byte { return served("/v1/estimate", body, http.StatusOK) }},
		{"service/job", func() []byte {
			var job subgraph.JobInfo
			if err := json.Unmarshal(served("/v1/jobs", fresh, http.StatusAccepted), &job); err != nil {
				t.Fatal(err)
			}
			if status, raw, _ := do(t, ts, "GET", "/v1/jobs/"+job.ID+"?wait=30s"); status != http.StatusOK {
				t.Fatalf("poll status %d: %s", status, raw)
			}
			status, raw, _ := do(t, ts, "GET", "/v1/jobs/"+job.ID+"/result")
			if status != http.StatusOK {
				t.Fatalf("result status %d: %s", status, raw)
			}
			return bytes.TrimSpace(raw)
		}},
		{"service/batch", func() []byte {
			var resp struct {
				Results []struct {
					Estimate json.RawMessage `json:"estimate"`
					Error    string          `json:"error"`
				} `json:"results"`
			}
			raw := served("/v1/batch", fmt.Sprintf(`{"graph":"bench","trials":%d,"seed":%d,"noCache":true,"queries":[{"query":"glet1"}]}`, T, seed), http.StatusOK)
			if err := json.Unmarshal(raw, &resp); err != nil || len(resp.Results) != 1 || resp.Results[0].Error != "" {
				t.Fatalf("batch response %s: %v", raw, err)
			}
			return resp.Results[0].Estimate
		}},
	}
	want := paths[0].run()
	for _, p := range paths[1:] {
		if got := p.run(); !bytes.Equal(got, want) {
			t.Errorf("%s differs from %s:\n got: %s\nwant: %s", p.name, paths[0].name, got, want)
		}
	}
	var st subgraph.ServiceStats
	get(t, ts, "/v1/stats", &st)
	if st.Estimates != 3 || st.Cache.Hits != 1 {
		t.Errorf("computed %d estimates with %d cache hits, want 3 (sync, job, batch) and 1", st.Estimates, st.Cache.Hits)
	}
}

// TestEstimateCacheHit proves the repeat-request path: identical bytes in
// the body, X-Cache flips to HIT, and the cache hit counter increments.
func TestEstimateCacheHit(t *testing.T) {
	ts, _ := newServer(t)
	req := `{"graph":"bench","query":"brain1","trials":3,"seed":2}`

	var before subgraph.ServiceStats
	get(t, ts, "/v1/stats", &before)

	body1, h1 := post(t, ts, "/v1/estimate", req, http.StatusOK)
	body2, h2 := post(t, ts, "/v1/estimate", req, http.StatusOK)
	if h1.Get("X-Cache") != "MISS" || h2.Get("X-Cache") != "HIT" {
		t.Errorf("X-Cache = %q then %q, want MISS then HIT", h1.Get("X-Cache"), h2.Get("X-Cache"))
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("cached response body differs:\n%s\n%s", body1, body2)
	}

	var after subgraph.ServiceStats
	get(t, ts, "/v1/stats", &after)
	if after.Cache.Hits != before.Cache.Hits+1 {
		t.Errorf("cache hits %d → %d, want +1", before.Cache.Hits, after.Cache.Hits)
	}
	if after.Estimates != before.Estimates+1 {
		t.Errorf("computed estimates %d → %d, want +1 (second served from cache)",
			before.Estimates, after.Estimates)
	}
}

// TestStatsLockWaitSection checks /v1/stats reports one lock per serving
// structure — lock-wait counters on the registry, the cache, the job
// manager and its singleflight index — and no per-shard breakdown.
func TestStatsLockWaitSection(t *testing.T) {
	ts, _ := newServer(t)
	post(t, ts, "/v1/estimate", `{"graph":"bench","query":"path3","trials":1,"seed":1}`, http.StatusOK)

	var st map[string]json.RawMessage
	get(t, ts, "/v1/stats", &st)
	if _, ok := st["shards"]; ok {
		t.Error("/v1/stats still has a shards section")
	}
	var jobs map[string]json.RawMessage
	if err := json.Unmarshal(st["jobs"], &jobs); err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string]json.RawMessage{
		"registry": st["registry"], "cache": st["cache"], "jobs": st["jobs"], "jobs.singleflight": jobs["singleflight"],
	} {
		var row map[string]json.RawMessage
		if err := json.Unmarshal(raw, &row); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if row["lockWaits"] == nil || row["lockWaitMs"] == nil {
			t.Errorf("%s is missing lockWaits/lockWaitMs: %s", name, raw)
		}
		if row["shards"] != nil {
			t.Errorf("%s still reports a shard count: %s", name, raw)
		}
	}
}

// TestBatchFigure8Catalog runs the paper's ten Figure 8 queries as one
// batch and checks each result equals the direct library call with the
// same seed.
func TestBatchFigure8Catalog(t *testing.T) {
	ts, g := newServer(t)
	queries := subgraph.Queries()

	var items []string
	for _, q := range queries {
		items = append(items, fmt.Sprintf(`{"query":%q}`, q.Name))
	}
	req := fmt.Sprintf(`{"graph":"bench","trials":3,"seed":5,"queries":[%s]}`,
		bytes.NewBufferString(joinComma(items)))
	raw, _ := post(t, ts, "/v1/batch", req, http.StatusOK)

	var resp struct {
		Graph   string `json:"graph"`
		Results []struct {
			Query    string          `json:"query"`
			Cached   bool            `json:"cached"`
			Estimate json.RawMessage `json:"estimate"`
			Error    string          `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(queries) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(queries))
	}
	for i, q := range queries {
		r := resp.Results[i]
		if r.Error != "" {
			t.Errorf("%s: error: %s", q.Name, r.Error)
			continue
		}
		if r.Query != q.Name {
			t.Errorf("result %d is %q, want %q (order must be preserved)", i, r.Query, q.Name)
			continue
		}
		var served subgraph.Estimation
		if err := json.Unmarshal(r.Estimate, &served); err != nil {
			t.Errorf("%s: %v", q.Name, err)
			continue
		}
		direct, err := subgraph.Estimate(g, q, subgraph.EstimateOptions{Trials: 3, Seed: 5, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !sameEstimate(served, direct) {
			t.Errorf("%s: batch estimate differs from direct call:\nserved: %+v\ndirect: %+v",
				q.Name, served, direct)
		}
	}

	var st subgraph.ServiceStats
	get(t, ts, "/v1/stats", &st)
	if st.Batches != 1 {
		t.Errorf("batches = %d, want 1", st.Batches)
	}
}

// TestBatchServesRepeatsFromCache re-runs a batch and expects every item
// cached the second time.
func TestBatchServesRepeatsFromCache(t *testing.T) {
	ts, _ := newServer(t)
	req := `{"graph":"bench","trials":2,"seed":3,"queries":[{"query":"glet2"},{"query":"youtube"}]}`
	post(t, ts, "/v1/batch", req, http.StatusOK)
	raw, _ := post(t, ts, "/v1/batch", req, http.StatusOK)
	var resp struct {
		Results []struct {
			Cached bool `json:"cached"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Results {
		if !r.Cached {
			t.Errorf("result %d not served from cache on repeat", i)
		}
	}
}

func TestEstimateErrors(t *testing.T) {
	ts, _ := newServer(t)
	post(t, ts, "/v1/estimate", `{"graph":"nope","query":"glet1"}`, http.StatusNotFound)
	post(t, ts, "/v1/estimate", `{"graph":"bench","query":"nonesuch"}`, http.StatusBadRequest)
	post(t, ts, "/v1/estimate", `{"graph":"bench","query":"glet1","algorithm":"XX"}`, http.StatusBadRequest)
	post(t, ts, "/v1/estimate", `{"graph":"bench"}`, http.StatusBadRequest)
	post(t, ts, "/v1/graphs", `{"standin":"enron","scale":512,"seed":1,"name":"bench2","powerlaw":3}`, http.StatusBadRequest)
	// star6 has treewidth 1 and is fine; a clique K4 has treewidth 3 and
	// must be rejected by the solver with a client error.
	post(t, ts, "/v1/estimate",
		`{"graph":"bench","queryEdges":[[0,1],[0,2],[0,3],[1,2],[1,3],[2,3]]}`, http.StatusBadRequest)
	// Resource-exhaustion guards: an absurd node id must be rejected
	// before the k×k adjacency matrix is allocated, and a huge trial
	// count before trials×n colorings are drawn.
	post(t, ts, "/v1/estimate",
		`{"graph":"bench","queryEdges":[[0,1073741824]]}`, http.StatusBadRequest)
	post(t, ts, "/v1/estimate",
		`{"graph":"bench","query":"glet1","trials":2000000000}`, http.StatusBadRequest)
	post(t, ts, "/v1/estimate",
		`{"graph":"bench","query":"glet1","ranks":2000000000}`, http.StatusBadRequest)
	// Parametric query names are untrusted too: huge, tiny, and negative
	// sizes must all be request errors, not allocations or panics, and
	// anything above the solver's 16-node cap is rejected up front.
	post(t, ts, "/v1/estimate", `{"graph":"bench","query":"star300000"}`, http.StatusBadRequest)
	post(t, ts, "/v1/estimate", `{"graph":"bench","query":"cycle2"}`, http.StatusBadRequest)
	post(t, ts, "/v1/estimate", `{"graph":"bench","query":"cycle-3"}`, http.StatusBadRequest)
	post(t, ts, "/v1/estimate", `{"graph":"bench","query":"path20"}`, http.StatusBadRequest)
	// A per-query graph override inside a batch is a per-item error, not
	// a silent recompute against the batch graph.
	raw, _ := post(t, ts, "/v1/batch",
		`{"graph":"bench","queries":[{"graph":"other","query":"glet1"},{"query":"youtube"}]}`, http.StatusOK)
	var br struct {
		Results []struct {
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 2 || br.Results[0].Error == "" || br.Results[1].Error != "" {
		t.Errorf("batch graph-override handling wrong: %+v", br.Results)
	}
}

// TestCustomQueryEdges estimates via an explicit edge list and checks it
// against the equivalent named query.
func TestCustomQueryEdges(t *testing.T) {
	ts, g := newServer(t)
	// cycle4 as explicit edges.
	raw, _ := post(t, ts, "/v1/estimate",
		`{"graph":"bench","queryEdges":[[0,1],[1,2],[2,3],[3,0]],"trials":3,"seed":11}`, http.StatusOK)
	var served subgraph.Estimation
	if err := json.Unmarshal(raw, &served); err != nil {
		t.Fatal(err)
	}
	q, err := subgraph.QueryByName("cycle4")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := subgraph.Estimate(g, q, subgraph.EstimateOptions{Trials: 3, Seed: 11, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if served.Matches != direct.Matches || !reflect.DeepEqual(served.Counts, direct.Counts) {
		t.Errorf("custom edges differ from cycle4:\nserved: %+v\ndirect: %+v", served, direct)
	}
}

// TestCacheHitKeepsRequesterNames sends the same topology under two
// display names; the second is a cache hit but must answer with its own
// query name, not replay the first requester's.
func TestCacheHitKeepsRequesterNames(t *testing.T) {
	ts, _ := newServer(t)
	body1, _ := post(t, ts, "/v1/estimate",
		`{"graph":"bench","queryEdges":[[0,1],[1,2],[2,0]],"queryName":"t1","trials":2,"seed":6}`, http.StatusOK)
	body2, h2 := post(t, ts, "/v1/estimate",
		`{"graph":"bench","queryEdges":[[0,1],[1,2],[2,0]],"queryName":"t2","trials":2,"seed":6}`, http.StatusOK)
	if h2.Get("X-Cache") != "HIT" {
		t.Fatalf("second request X-Cache = %q, want HIT", h2.Get("X-Cache"))
	}
	var e1, e2 subgraph.Estimation
	if err := json.Unmarshal(body1, &e1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body2, &e2); err != nil {
		t.Fatal(err)
	}
	if e1.Query != "t1" || e2.Query != "t2" {
		t.Errorf("query names = %q, %q; want t1, t2", e1.Query, e2.Query)
	}
	if !reflect.DeepEqual(e1.Counts, e2.Counts) || e1.Matches != e2.Matches {
		t.Errorf("cache hit changed the numbers:\n%+v\n%+v", e1, e2)
	}
}

func TestGraphListingAndLookup(t *testing.T) {
	ts, _ := newServer(t)
	var listing struct {
		Graphs []subgraph.GraphInfo `json:"graphs"`
	}
	get(t, ts, "/v1/graphs", &listing)
	if len(listing.Graphs) != 1 || listing.Graphs[0].Name != "bench" {
		t.Fatalf("listing = %+v, want one graph named bench", listing.Graphs)
	}
	var info subgraph.GraphInfo
	get(t, ts, "/v1/graphs/bench", &info)
	if info.ID != listing.Graphs[0].ID || info.Nodes == 0 {
		t.Errorf("lookup by name = %+v", info)
	}
	resp, err := http.Get(ts.URL + "/v1/graphs/nonesuch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown graph lookup: status %d, want 404", resp.StatusCode)
	}
}

func joinComma(items []string) string {
	out := ""
	for i, s := range items {
		if i > 0 {
			out += ","
		}
		out += s
	}
	return out
}

// do issues a bodyless request (GET/DELETE) and returns the raw response.
func do(t *testing.T, ts *httptest.Server, method, path string) (status int, raw []byte, header http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw, resp.Header
}

// TestJobsHTTPLifecycle walks the async API end to end: submit (202 +
// Location), long-poll to completion, list, fetch the result — whose body
// must be byte-identical to the synchronous /v1/estimate body for the
// same request — and observe that DELETE on a finished job changes
// nothing.
func TestJobsHTTPLifecycle(t *testing.T) {
	ts, _ := newServer(t)
	req := `{"graph":"bench","query":"glet1","trials":4,"seed":9}`

	raw, header := post(t, ts, "/v1/jobs", req, http.StatusAccepted)
	var job subgraph.JobInfo
	if err := json.Unmarshal(raw, &job); err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.State.Terminal() && !job.Cached {
		t.Fatalf("submitted job = %+v", job)
	}
	if loc := header.Get("Location"); loc != "/v1/jobs/"+job.ID {
		t.Errorf("Location = %q, want /v1/jobs/%s", loc, job.ID)
	}

	// Long-poll until terminal.
	deadline := time.Now().Add(30 * time.Second)
	for !job.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", job)
		}
		status, raw, _ := do(t, ts, "GET", "/v1/jobs/"+job.ID+"?wait=1s")
		if status != http.StatusOK {
			t.Fatalf("poll status %d: %s", status, raw)
		}
		if err := json.Unmarshal(raw, &job); err != nil {
			t.Fatal(err)
		}
	}
	if job.State != subgraph.JobDone {
		t.Fatalf("job finished %s: %+v", job.State, job)
	}
	if job.Progress.TrialsDone != 4 || job.Progress.TrialsTotal != 4 {
		t.Errorf("progress = %+v, want 4/4", job.Progress)
	}
	if job.FinishedAt == nil || job.ExpiresAt == nil {
		t.Errorf("terminal job missing timestamps: %+v", job)
	}

	// The listing knows the job.
	var listing struct {
		Jobs []subgraph.JobInfo `json:"jobs"`
	}
	get(t, ts, "/v1/jobs", &listing)
	found := false
	for _, j := range listing.Jobs {
		found = found || j.ID == job.ID
	}
	if !found {
		t.Errorf("job %s missing from listing %+v", job.ID, listing.Jobs)
	}

	// Async result == sync body, byte for byte. The sync call replays the
	// job's cached result, which the cache contract guarantees is the
	// original bytes.
	status, asyncBody, h := do(t, ts, "GET", "/v1/jobs/"+job.ID+"/result")
	if status != http.StatusOK {
		t.Fatalf("result status %d: %s", status, asyncBody)
	}
	if h.Get("X-Cache") != "MISS" {
		t.Errorf("computed job result X-Cache = %q, want MISS", h.Get("X-Cache"))
	}
	syncBody, _ := post(t, ts, "/v1/estimate", req, http.StatusOK)
	if !bytes.Equal(asyncBody, syncBody) {
		t.Errorf("async result body differs from sync body:\nasync: %s\nsync:  %s", asyncBody, syncBody)
	}

	// DELETE on a done job: state unchanged, result still there.
	status, raw, _ = do(t, ts, "DELETE", "/v1/jobs/"+job.ID)
	if status != http.StatusOK {
		t.Fatalf("delete done job status %d: %s", status, raw)
	}
	var after subgraph.JobInfo
	if err := json.Unmarshal(raw, &after); err != nil {
		t.Fatal(err)
	}
	if after.State != subgraph.JobDone {
		t.Errorf("done job became %s after DELETE", after.State)
	}
	if status, _, _ := do(t, ts, "GET", "/v1/jobs/"+job.ID+"/result"); status != http.StatusOK {
		t.Errorf("result gone after no-op DELETE: status %d", status)
	}
}

// TestJobsHTTPErrors covers the jobs API's error statuses: unknown ids →
// 404, unfinished result → 409, canceled job's result → 499 (client
// cancel, distinct from the 503 shed-load path), bad wait → 400.
func TestJobsHTTPErrors(t *testing.T) {
	svc := subgraph.NewService(subgraph.ServiceOptions{Workers: 1})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	post(t, ts, "/v1/graphs", `{"powerlaw":8000,"alpha":1.5,"seed":2,"name":"slowg"}`, http.StatusOK)

	if status, _, _ := do(t, ts, "GET", "/v1/jobs/nope"); status != http.StatusNotFound {
		t.Errorf("unknown job status %d, want 404", status)
	}
	if status, _, _ := do(t, ts, "GET", "/v1/jobs/nope/result"); status != http.StatusNotFound {
		t.Errorf("unknown result status %d, want 404", status)
	}
	if status, _, _ := do(t, ts, "DELETE", "/v1/jobs/nope"); status != http.StatusNotFound {
		t.Errorf("unknown delete status %d, want 404", status)
	}
	post(t, ts, "/v1/jobs", `{"graph":"nope","query":"glet1"}`, http.StatusNotFound)
	post(t, ts, "/v1/jobs", `{"graph":"slowg","query":"nonesuch"}`, http.StatusBadRequest)

	raw, _ := post(t, ts, "/v1/jobs",
		`{"graph":"slowg","query":"brain3","trials":500,"seed":1}`, http.StatusAccepted)
	var job subgraph.JobInfo
	if err := json.Unmarshal(raw, &job); err != nil {
		t.Fatal(err)
	}

	if status, _, _ := do(t, ts, "GET", "/v1/jobs/"+job.ID+"?wait=banana"); status != http.StatusBadRequest {
		t.Errorf("bad wait status %d, want 400", status)
	}
	// Result of a queued/running job: 409, not a hang.
	if status, _, _ := do(t, ts, "GET", "/v1/jobs/"+job.ID+"/result"); status != http.StatusConflict {
		t.Errorf("unfinished result status %d, want 409", status)
	}

	// Cancel it; its result now reports the client cancel as 499.
	status, raw, _ := do(t, ts, "DELETE", "/v1/jobs/"+job.ID)
	if status != http.StatusOK {
		t.Fatalf("delete status %d: %s", status, raw)
	}
	var canceled subgraph.JobInfo
	if err := json.Unmarshal(raw, &canceled); err != nil {
		t.Fatal(err)
	}
	if canceled.State != subgraph.JobCanceled {
		t.Fatalf("state after DELETE = %s, want canceled", canceled.State)
	}
	// The fetcher completed its own request; the result is gone — 410,
	// not the 499 reserved for the requester's own disconnect.
	if status, _, _ := do(t, ts, "GET", "/v1/jobs/"+job.ID+"/result"); status != http.StatusGone {
		t.Errorf("canceled result status %d, want 410", status)
	}
}
