package service_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	subgraph "repro"
	"repro/internal/service"
)

// estimateVia runs one request against a fresh service and returns the
// result. Estimates carry no scheduling telemetry, so equivalence tests
// can use DeepEqual on every backend.
func estimateVia(t *testing.T, svc *subgraph.Service, req subgraph.EstimateRequest) subgraph.EstimateResult {
	t.Helper()
	res, err := svc.Estimate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func newEnronService(t *testing.T, opts subgraph.ServiceOptions) *subgraph.Service {
	t.Helper()
	svc := subgraph.NewService(opts)
	t.Cleanup(svc.Close)
	if _, err := svc.AddGraph(subgraph.GraphSpec{Standin: "enron", Scale: 512, Seed: 1, Name: "bench"}); err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestCacheExtensionEquivalence is the trial-granular cache's core
// invariant: a request that extends previously cached trials returns an
// estimate bit-identical to a cold run at the same trial count, and the
// smaller earlier request is replayed as a prefix-slice pure hit.
func TestCacheExtensionEquivalence(t *testing.T) {
	for _, backend := range []string{"sim", "parallel"} {
		t.Run(backend, func(t *testing.T) {
			base := subgraph.EstimateRequest{Graph: "bench", Query: "glet1", Seed: 7, Backend: backend}

			warm := newEnronService(t, subgraph.ServiceOptions{Workers: 2})
			small := base
			small.Trials = 3
			first := estimateVia(t, warm, small)
			if first.Cached {
				t.Fatal("cold 3-trial run reported cached")
			}
			large := base
			large.Trials = 8
			extended := estimateVia(t, warm, large)
			if extended.Cached {
				t.Fatal("extension must compute (5 missing trials), not replay")
			}

			cold := newEnronService(t, subgraph.ServiceOptions{Workers: 2})
			fresh := estimateVia(t, cold, large)
			if a, b := extended.Estimate, fresh.Estimate; !reflect.DeepEqual(a, b) {
				t.Fatalf("extended estimate differs from cold run:\n%+v\n%+v", a, b)
			}
			if got := warm.Cache().Stats().Extended; got < 1 {
				t.Errorf("cache.extended = %d, want ≥ 1 after the 3→8 extension", got)
			}

			// The original smaller request is now a pure prefix-slice hit,
			// bit-identical to its first run.
			replay := estimateVia(t, warm, small)
			if !replay.Cached {
				t.Error("3-trial request after an 8-trial entry should be a pure hit")
			}
			if !reflect.DeepEqual(replay.Estimate, first.Estimate) {
				t.Errorf("prefix-slice replay differs from original:\n%+v\n%+v",
					replay.Estimate, first.Estimate)
			}
		})
	}
}

// TestPrecisionRequestLifecycle drives a declared-precision request
// through the service: the adaptive stop lands in [minTrials, maxTrials],
// equals a fixed-trial run at the stopping count, is replayed as a pure
// hit on repeat, and a tighter follow-up extends the same trial stream.
func TestPrecisionRequestLifecycle(t *testing.T) {
	svc := newEnronService(t, subgraph.ServiceOptions{Workers: 2})
	loose := subgraph.EstimateRequest{
		Graph: "bench", Query: "glet1", Seed: 7,
		Precision: &subgraph.PrecisionSpec{RelErr: 0.6, Confidence: 0.9, MaxTrials: 64},
	}
	res := estimateVia(t, svc, loose)
	T := res.Estimate.Trials
	if T < 2 || T > 64 {
		t.Fatalf("adaptive run used %d trials, want within [2,64]", T)
	}
	if res.Cached {
		t.Fatal("cold precision run reported cached")
	}

	// Bit-identical to the fixed-trial run at the stopping count (fresh
	// service so nothing is cached).
	fixedSvc := newEnronService(t, subgraph.ServiceOptions{Workers: 2})
	fixed := estimateVia(t, fixedSvc, subgraph.EstimateRequest{Graph: "bench", Query: "glet1", Seed: 7, Trials: T})
	if !reflect.DeepEqual(res.Estimate, fixed.Estimate) {
		t.Fatalf("adaptive estimate differs from fixed Trials:%d run:\n%+v\n%+v",
			T, res.Estimate, fixed.Estimate)
	}

	// Replay: same precision request is a pure hit with the same body.
	again := estimateVia(t, svc, loose)
	if !again.Cached {
		t.Error("repeated precision request should replay from cached trials")
	}
	if !reflect.DeepEqual(again.Estimate, res.Estimate) {
		t.Error("replayed precision estimate differs from original")
	}

	// A tighter target over the same stream reuses the cached trials and
	// extends them; its counts prefix equals the loose run's counts.
	tight := loose
	tight.Precision = &subgraph.PrecisionSpec{RelErr: 0.15, Confidence: 0.9, MaxTrials: 64}
	tres := estimateVia(t, svc, tight)
	if tres.Estimate.Trials < T {
		t.Fatalf("tighter target stopped earlier (%d) than looser (%d)", tres.Estimate.Trials, T)
	}
	if !reflect.DeepEqual(tres.Estimate.Counts[:T], res.Estimate.Counts) {
		t.Errorf("tight run's count prefix differs from the loose run's counts")
	}

	st := svc.Stats()
	if st.Precision.Requests < 2 {
		t.Errorf("precision.requests = %d, want ≥ 2", st.Precision.Requests)
	}
	if st.Precision.TrialsSaved == 0 {
		t.Errorf("precision.trialsSaved = 0, want > 0 (stops were below maxTrials 64)")
	}
	if st.Precision.EarlyStops == 0 {
		t.Errorf("precision.earlyStops = 0, want > 0")
	}
}

// TestPrecisionOverHTTP covers the wire: a precision object alongside
// trials, the job path, progress carrying mean/CV, and validation errors.
func TestPrecisionOverHTTP(t *testing.T) {
	ts, _ := newServer(t)
	body, hdr := post(t, ts, "/v1/estimate",
		`{"graph":"bench","query":"glet1","seed":7,"precision":{"relErr":0.6,"confidence":0.9,"maxTrials":32}}`,
		http.StatusOK)
	var est struct {
		Trials int
		Counts []uint64
	}
	if err := json.Unmarshal(body, &est); err != nil {
		t.Fatal(err)
	}
	if est.Trials < 2 || est.Trials > 32 || len(est.Counts) != est.Trials {
		t.Fatalf("precision estimate trials = %d (counts %d), want in [2,32]", est.Trials, len(est.Counts))
	}
	if hdr.Get("X-Cache") != "MISS" {
		t.Errorf("cold precision request X-Cache = %q, want MISS", hdr.Get("X-Cache"))
	}

	// Same request as an async job: result body byte-identical, job info
	// reports the early stop against the maxTrials bound.
	jobRaw, _ := post(t, ts, "/v1/jobs",
		`{"graph":"bench","query":"glet1","seed":7,"precision":{"relErr":0.6,"confidence":0.9,"maxTrials":32}}`,
		http.StatusAccepted)
	var job subgraph.JobInfo
	if err := json.Unmarshal(jobRaw, &job); err != nil {
		t.Fatal(err)
	}
	var done subgraph.JobInfo
	get(t, ts, "/v1/jobs/"+job.ID+"?wait=10s", &done)
	if done.State != subgraph.JobDone {
		t.Fatalf("job state %s, want done", done.State)
	}
	if done.Progress.TrialsTotal != 32 || done.Progress.TrialsDone != est.Trials {
		t.Errorf("job progress %d/%d, want %d/32", done.Progress.TrialsDone, done.Progress.TrialsTotal, est.Trials)
	}
	if done.Progress.Mean <= 0 {
		t.Errorf("done job progress mean = %v, want > 0", done.Progress.Mean)
	}
	resBody, _ := do2(t, ts, "GET", "/v1/jobs/"+job.ID+"/result")
	if string(resBody) != string(body) {
		t.Errorf("job result body differs from sync body:\n%s\n%s", resBody, body)
	}

	// Validation: bad relErr and bad confidence are 400s.
	post(t, ts, "/v1/estimate", `{"graph":"bench","query":"glet1","precision":{"relErr":-1}}`, http.StatusBadRequest)
	post(t, ts, "/v1/estimate", `{"graph":"bench","query":"glet1","precision":{"relErr":0.1,"confidence":2}}`, http.StatusBadRequest)

	// Stats surface the adaptive outcome.
	var st subgraph.ServiceStats
	get(t, ts, "/v1/stats", &st)
	if st.Precision.Requests == 0 {
		t.Error("stats precision.requests = 0 after precision traffic")
	}
}

// do2 is do with a 200 assertion.
func do2(t *testing.T, ts *httptest.Server, method, path string) ([]byte, http.Header) {
	t.Helper()
	status, raw, hdr := do(t, ts, method, path)
	if status != http.StatusOK {
		t.Fatalf("%s %s: status %d; body %s", method, path, status, raw)
	}
	return raw, hdr
}

// TestBatchPrecisionInheritance: a batch-level precision spec applies to
// every query that doesn't override it, and per-item errors stay local.
func TestBatchPrecisionInheritance(t *testing.T) {
	svc := newEnronService(t, subgraph.ServiceOptions{Workers: 4})
	items, err := svc.EstimateBatch(context.Background(), subgraph.BatchRequest{
		Graph:     "bench",
		Seed:      7,
		Precision: &subgraph.PrecisionSpec{RelErr: 0.6, Confidence: 0.9, MaxTrials: 16},
		Queries: []subgraph.EstimateRequest{
			{Query: "glet1"},
			{Query: "path3"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if it.Err != nil {
			t.Fatalf("%s: %v", it.Query, it.Err)
		}
		if it.Result.Estimate.Trials < 2 || it.Result.Estimate.Trials > 16 {
			t.Errorf("%s: trials %d outside [2,16]", it.Query, it.Result.Estimate.Trials)
		}
	}
}

// TestTrialKeySharing: requests differing only in trial count or
// precision target share one trial stream entry; changing seed, backend,
// or ranks does not.
func TestTrialKeySharing(t *testing.T) {
	a := service.Key{Graph: 1, Query: "q", Backend: "sim", Trials: 3, Seed: 7, Ranks: 4}
	b := a
	b.Trials = 64
	b.RelErr = 0.1
	b.Confidence = 0.95
	if a.TrialKey() != b.TrialKey() {
		t.Error("fixed and precision requests over one stream must share a TrialKey")
	}
	c := a
	c.Seed = 8
	if a.TrialKey() == c.TrialKey() {
		t.Error("different seeds must not share a TrialKey")
	}
	d := a
	d.Backend = "parallel"
	if a.TrialKey() == d.TrialKey() {
		t.Error("different backends must not share a TrialKey")
	}
	if a == b {
		t.Error("request keys with different precision targets must differ")
	}
}
