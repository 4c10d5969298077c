package service_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	subgraph "repro"
)

// fetchMetrics GETs /metrics and returns the raw exposition text.
func fetchMetrics(t *testing.T, tsURL string) string {
	t.Helper()
	resp, err := http.Get(tsURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// lintExposition walks the Prometheus text format line by line: comments
// are well-formed HELP/TYPE lines, every sample line parses as
// name{labels} value, and every sample's family was announced by a TYPE
// line first. It returns the set of family names seen.
func lintExposition(t *testing.T, text string) map[string]bool {
	t.Helper()
	families := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				t.Errorf("bad comment line: %q", line)
				continue
			}
			if fields[1] == "TYPE" {
				families[fields[2]] = true
			}
			continue
		}
		name := line
		rest := ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name = line[:i]
			end := strings.IndexByte(line, '}')
			if end < i {
				t.Errorf("unterminated label block: %q", line)
				continue
			}
			rest = strings.TrimSpace(line[end+1:])
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			name = line[:i]
			rest = strings.TrimSpace(line[i+1:])
		}
		if _, err := strconv.ParseFloat(rest, 64); err != nil {
			t.Errorf("bad sample value in %q: %v", line, err)
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name && families[base] {
				family = base
				break
			}
		}
		if !families[family] {
			t.Errorf("sample %q has no preceding TYPE line", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return families
}

// TestMetricsExposition drives one computed estimate and one cache hit
// through the server, then checks /metrics is valid exposition text
// carrying the request/trial/phase latency histograms the acceptance
// criteria name, labeled by endpoint and backend.
func TestMetricsExposition(t *testing.T) {
	ts, _ := newServer(t)
	// Backend pinned so the label assertions hold under any
	// $SUBGRAPH_BACKEND default.
	req := `{"graph":"bench","query":"cycle4","trials":2,"seed":3,"backend":"sim"}`
	post(t, ts, "/v1/estimate", req, http.StatusOK)
	post(t, ts, "/v1/estimate", req, http.StatusOK) // cache hit: same endpoint label

	text := fetchMetrics(t, ts.URL)
	families := lintExposition(t, text)

	for _, want := range []string{
		"subgraph_requests_total",
		"subgraph_request_seconds",
		"subgraph_trial_seconds",
		"subgraph_phase_seconds",
		"subgraph_queue_wait_seconds",
		"subgraph_estimates_total",
		"subgraph_cache_hits_total",
		"subgraph_lock_waits_total",
		"subgraph_engine_runs_total",
		"subgraph_uptime_seconds",
	} {
		if !families[want] {
			t.Errorf("family %s missing from /metrics", want)
		}
	}
	for _, want := range []string{
		`subgraph_requests_total{code="200",endpoint="/v1/estimate"} 2`,
		`subgraph_request_seconds_count{endpoint="/v1/estimate"} 2`,
		`subgraph_trial_seconds_count{backend="sim"} 2`,
		`phase="pathJoin"`,
		`phase="cycleJoin"`,
		`phase="cacheStore"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Scraping must not perturb the counters it reports beyond its own
	// request: the /metrics request itself lands in the middleware totals.
	text2 := fetchMetrics(t, ts.URL)
	if !strings.Contains(text2, `subgraph_requests_total{code="200",endpoint="/metrics"} 1`) {
		t.Error("the first /metrics scrape did not count itself")
	}
}

// TestJobTracePhases submits a job on each backend and checks its trace:
// one span per solver superstep with the expected phase names, queue wait
// and cache bookkeeping spans, aggregates consistent with the spans, and
// per-phase totals that sum to within the job's wall time (the job runs
// its trials serially, so spans never overlap).
func TestJobTracePhases(t *testing.T) {
	for _, backend := range []string{"sim", "parallel"} {
		t.Run(backend, func(t *testing.T) {
			ts, _ := newServer(t)
			req := fmt.Sprintf(`{"graph":"bench","query":"cycle4","trials":2,"seed":7,"backend":%q}`, backend)
			raw, _ := post(t, ts, "/v1/jobs", req, http.StatusAccepted)
			var job subgraph.JobInfo
			if err := json.Unmarshal(raw, &job); err != nil {
				t.Fatal(err)
			}
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
				t.Fatalf("job finished %s", job.State)
			}

			var trace subgraph.TraceInfo
			get(t, ts, "/v1/jobs/"+job.ID+"/trace", &trace)
			if trace.ID != job.ID {
				t.Errorf("trace.ID = %q, want %q", trace.ID, job.ID)
			}
			if len(trace.Spans) == 0 {
				t.Fatal("trace has no spans")
			}

			// cycle4 decomposes into path walks joined at a split — both
			// solver phases must have recorded at least one superstep span —
			// and the service layer contributes the queue-wait and cache
			// bookkeeping spans.
			for _, phase := range []string{"pathJoin", "cycleJoin", "queueWait", "cacheStore"} {
				if trace.Phases[phase].Count == 0 {
					t.Errorf("phase %q absent from trace (phases: %v)", phase, trace.Phases)
				}
			}

			// The spans and the aggregates are two views of one recording.
			counts := map[string]uint64{}
			totals := map[string]float64{}
			for _, sp := range trace.Spans {
				if sp.DurMs < 0 || sp.StartMs < 0 {
					t.Errorf("negative span %+v", sp)
				}
				counts[sp.Name]++
				totals[sp.Name] += sp.DurMs
			}
			if trace.DroppedSpans == 0 {
				for name, ph := range trace.Phases {
					if ph.Count != counts[name] {
						t.Errorf("phase %s count %d != %d spans", name, ph.Count, counts[name])
					}
					if diff := ph.TotalMs - totals[name]; diff > 0.01 || diff < -0.01 {
						t.Errorf("phase %s total %.3fms != span sum %.3fms", name, ph.TotalMs, totals[name])
					}
				}
			}

			// Serial job: spans never overlap, so phase totals are disjoint
			// slices of the wall clock. Allow a millisecond of float slack.
			var sum float64
			for _, ph := range trace.Phases {
				sum += ph.TotalMs
			}
			if sum > trace.WallMs+1 {
				t.Errorf("phase totals %.3fms exceed wall %.3fms", sum, trace.WallMs)
			}

			if status, _, _ := do(t, ts, "GET", "/v1/jobs/nope/trace"); status != http.StatusNotFound {
				t.Errorf("unknown job trace status %d, want 404", status)
			}
		})
	}
}

// TestTraceSharedAcrossCoalescedJobs checks the singleflight contract:
// jobs attached to the same flight report the same computation's trace.
func TestTraceSharedAcrossCoalescedJobs(t *testing.T) {
	svc := subgraph.NewService(subgraph.ServiceOptions{Workers: 1})
	t.Cleanup(svc.Close)

	if _, err := svc.AddGraph(subgraph.GraphSpec{Standin: "enron", Scale: 512, Seed: 1, Name: "bench"}); err != nil {
		t.Fatal(err)
	}
	// A decoy occupies the single worker so the two identical submissions
	// below coalesce while queued.
	decoy, err := svc.SubmitEstimateJob(subgraph.EstimateRequest{Graph: "bench", Query: "brain2", Trials: 3, Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	req := subgraph.EstimateRequest{Graph: "bench", Query: "cycle5", Trials: 2, Seed: 42}
	a, err := svc.SubmitEstimateJob(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.SubmitEstimateJob(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{decoy.ID, a.ID, b.ID} {
		info, err := svc.WaitJob(nil, id, 30*time.Second)
		if err != nil || !info.State.Terminal() {
			t.Fatalf("job %s: err=%v state=%s", id, err, info.State)
		}
	}
	ta, err := svc.JobTrace(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := svc.JobTrace(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(ta.Spans) == 0 {
		t.Fatal("coalesced jobs have no spans")
	}
	if len(ta.Spans) != len(tb.Spans) || ta.Phases["pathJoin"] != tb.Phases["pathJoin"] {
		t.Errorf("coalesced jobs disagree on the shared trace: %d vs %d spans", len(ta.Spans), len(tb.Spans))
	}
}

// TestStatsLatencySections checks /v1/stats grew the http and
// trialLatency quantile summaries, sourced from the same histograms
// /metrics exposes.
func TestStatsLatencySections(t *testing.T) {
	ts, _ := newServer(t)
	post(t, ts, "/v1/estimate", `{"graph":"bench","query":"path3","trials":2,"seed":1,"backend":"sim"}`, http.StatusOK)

	var st struct {
		HTTP         map[string]subgraph.LatencySummary `json:"http"`
		TrialLatency map[string]subgraph.LatencySummary `json:"trialLatency"`
	}
	get(t, ts, "/v1/stats", &st)
	est, ok := st.HTTP["/v1/estimate"]
	if !ok || est.Count != 1 {
		t.Fatalf("http summary = %+v, want /v1/estimate count 1", st.HTTP)
	}
	if est.P50Ms <= 0 || est.P99Ms < est.P50Ms {
		t.Errorf("implausible quantiles: %+v", est)
	}
	tl, ok := st.TrialLatency["sim"]
	if !ok || tl.Count != 2 {
		t.Fatalf("trialLatency = %+v, want sim count 2", st.TrialLatency)
	}
}

// TestEstimateBitIdenticalWithTracing pins the load-bearing invariant:
// recording a trace must not perturb the estimate. The served numbers
// (tracing always on) equal the direct library call (no service, no
// tracing) at equal seed and trials.
func TestEstimateBitIdenticalWithTracing(t *testing.T) {
	ts, g := newServer(t)
	raw, _ := post(t, ts, "/v1/estimate",
		`{"graph":"bench","query":"cycle5","trials":3,"seed":17}`, http.StatusOK)
	var served subgraph.Estimation
	if err := json.Unmarshal(raw, &served); err != nil {
		t.Fatal(err)
	}
	q, err := subgraph.QueryByName("cycle5")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := subgraph.Estimate(g, q, subgraph.EstimateOptions{Trials: 3, Seed: 17, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !sameEstimate(served, direct) {
		t.Errorf("tracing perturbed the estimate:\nserved: %+v\ndirect: %+v", served, direct)
	}
}

// TestRequestIDHeader checks every response carries the X-Request-ID the
// access log lines key on.
func TestRequestIDHeader(t *testing.T) {
	ts, _ := newServer(t)
	status, _, header := do(t, ts, "GET", "/healthz")
	if status != http.StatusOK {
		t.Fatal("healthz failed")
	}
	if header.Get("X-Request-ID") == "" {
		t.Error("response missing X-Request-ID")
	}
}
