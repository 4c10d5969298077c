package service_test

import (
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	subgraph "repro"
	"repro/internal/engine"
)

// sameEstimate compares two estimates for result equality: every
// result-bearing field (counts, matches, CV, trials, names) and the
// deterministic engine counters must match bit for bit. Scheduling
// telemetry (Stats.Steals) is not part of an estimate: it depends on
// which worker happened to steal which partition, and is reported by
// /v1/stats and /metrics only.
func sameEstimate(a, b subgraph.Estimation) bool { return reflect.DeepEqual(a, b) }

// TestBackendsBitIdenticalThroughService: the same request served under
// the sim and the parallel backend must produce identical counts; the two
// backends must occupy distinct cache entries (their embedded stats
// differ), so a hit on one is not replayed for the other.
func TestBackendsBitIdenticalThroughService(t *testing.T) {
	ts, _ := newServer(t)

	estimate := func(backend string) (subgraph.Estimation, string) {
		t.Helper()
		body, header := post(t, ts, "/v1/estimate",
			`{"graph":"bench","query":"glet1","trials":3,"seed":11,"backend":"`+backend+`"}`, http.StatusOK)
		var est subgraph.Estimation
		if err := json.Unmarshal(body, &est); err != nil {
			t.Fatal(err)
		}
		return est, header.Get("X-Cache")
	}

	sim, c1 := estimate("sim")
	par, c2 := estimate("parallel")
	if c1 != "MISS" || c2 != "MISS" {
		t.Fatalf("X-Cache = %q/%q, want MISS/MISS: backends must not share cache entries", c1, c2)
	}
	if !reflect.DeepEqual(sim.Counts, par.Counts) || sim.Matches != par.Matches {
		t.Errorf("backends disagree:\nsim:      %v %.3f\nparallel: %v %.3f",
			sim.Counts, sim.Matches, par.Counts, par.Matches)
	}
	if sim.Stats.Backend != "sim" || par.Stats.Backend != "parallel" {
		t.Errorf("stats backends = %q/%q, want sim/parallel", sim.Stats.Backend, par.Stats.Backend)
	}
	if par.Stats.Messages != 0 {
		t.Errorf("parallel backend reported %d simulated messages, want 0", par.Stats.Messages)
	}
	if sim.Stats.Messages == 0 {
		t.Error("sim backend reported 0 messages; its metrics simulation is broken")
	}

	// Replays hit their own backend's entry.
	if _, c := estimate("parallel"); c != "HIT" {
		t.Errorf("parallel replay X-Cache = %q, want HIT", c)
	}
	if _, c := estimate("sim"); c != "HIT" {
		t.Errorf("sim replay X-Cache = %q, want HIT", c)
	}
}

// TestStatsEngineSection: /v1/stats must describe the default backend and
// report per-backend counters for every backend that has actually run.
func TestStatsEngineSection(t *testing.T) {
	ts, _ := newServer(t)

	post(t, ts, "/v1/estimate", `{"graph":"bench","query":"path3","trials":2,"seed":3,"backend":"parallel","ranks":3}`, http.StatusOK)
	post(t, ts, "/v1/estimate", `{"graph":"bench","query":"path3","trials":2,"seed":3,"backend":"sim"}`, http.StatusOK)

	var st subgraph.ServiceStats
	get(t, ts, "/v1/stats", &st)
	// The service default tracks $SUBGRAPH_BACKEND (that's how CI runs the
	// suite under both backends), so compare against the resolved name.
	wantDefault, err := engine.Canonical("")
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine.Backend != wantDefault {
		t.Errorf("engine.backend = %q, want the default %q", st.Engine.Backend, wantDefault)
	}
	par, ok := st.Engine.Backends["parallel"]
	if !ok {
		t.Fatalf("engine.backends missing %q: %+v", "parallel", st.Engine.Backends)
	}
	if par.Runs != 1 || par.Workers != 3 || par.TotalLoad <= 0 || par.Messages != 0 {
		t.Errorf("parallel backend counters malformed: %+v", par)
	}
	sim, ok := st.Engine.Backends["sim"]
	if !ok {
		t.Fatalf("engine.backends missing %q: %+v", "sim", st.Engine.Backends)
	}
	if sim.Runs != 1 || sim.Messages <= 0 {
		t.Errorf("sim backend counters malformed: %+v", sim)
	}
}

// TestBackendValidation: an unknown backend must be rejected at request
// time with a 400, not deep inside a job.
func TestBackendValidation(t *testing.T) {
	ts, _ := newServer(t)

	post(t, ts, "/v1/estimate", `{"graph":"bench","query":"path3","backend":"mpi"}`, http.StatusBadRequest)
}

// TestBatchBackendInheritance: a batch-level backend must reach every
// query, and the per-query knob must override it — proven through the
// stats counters, which only the engine that really ran can bump.
func TestBatchBackendInheritance(t *testing.T) {
	svc := subgraph.NewService(subgraph.ServiceOptions{Workers: 2})
	defer svc.Close()
	if _, err := svc.AddGraph(subgraph.GraphSpec{PowerLawN: 300, Alpha: 1.6, Seed: 4, Name: "bb"}); err != nil {
		t.Fatal(err)
	}
	items, err := svc.EstimateBatch(context.Background(), subgraph.BatchRequest{
		Graph:   "bb",
		Backend: "parallel",
		Trials:  2,
		Seed:    5,
		Queries: []subgraph.EstimateRequest{
			{Query: "path3"},
			{Query: "cycle4", Backend: "sim"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if it.Err != nil {
			t.Fatalf("%s: %v", it.Query, it.Err)
		}
	}
	if b := items[0].Result.Estimate.Stats.Backend; b != "parallel" {
		t.Errorf("inherited backend = %q, want parallel", b)
	}
	if b := items[1].Result.Estimate.Stats.Backend; b != "sim" {
		t.Errorf("overridden backend = %q, want sim", b)
	}
}
