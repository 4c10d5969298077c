package service

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/query"
)

// TestKeyCompatibilityShim pins the compatibility contract of the
// precision redesign: a request carrying only `trials` — every existing
// client — must produce exactly the cache/singleflight key the
// pre-precision service produced, field for field, with every new
// precision field zero. If normalization ever starts defaulting precision
// onto legacy requests (silently re-keying the cache and splitting
// singleflight), this fails.
func TestKeyCompatibilityShim(t *testing.T) {
	svc := New(Options{Workers: 1})
	defer svc.Close()
	if _, err := svc.AddGraph(GraphSpec{Standin: "enron", Scale: 512, Seed: 1, Name: "g"}); err != nil {
		t.Fatal(err)
	}
	r, err := svc.resolve(EstimateRequest{Graph: "g", Query: "glet1", Trials: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r.h.Release()
	q, err := query.ByName("glet1")
	if err != nil {
		t.Fatal(err)
	}
	got := r.key
	// The default backend resolves through $SUBGRAPH_BACKEND exactly as it
	// did pre-redesign (CI runs this under both values).
	backend, err := engine.Canonical("")
	if err != nil {
		t.Fatal(err)
	}
	want := Key{
		// The exact key the PR4 service built for this request: the five
		// identity fields plus the three knobs, nothing else.
		Graph:     r.h.Fingerprint(),
		Query:     QuerySignature(q),
		Algorithm: core.DB,
		Backend:   backend,
		Trials:    3,
		Seed:      7,
		Ranks:     4,
	}
	if got != want {
		t.Fatalf("legacy request re-keyed:\ngot  %+v\nwant %+v", got, want)
	}

	// A precision request keys differently (it may stop at a different
	// trial count) but projects onto the same trial stream.
	pr, err := svc.resolve(EstimateRequest{Graph: "g", Query: "glet1", Seed: 7,
		Precision: &PrecisionSpec{RelErr: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	pr.h.Release()
	preq, pkey := pr.req, pr.key
	if pkey == got {
		t.Error("precision request must not collide with the legacy key")
	}
	if pkey.TrialKey() != got.TrialKey() {
		t.Error("precision and legacy requests over one seed must share a TrialKey")
	}
	if pkey.RelErr != 0.1 || pkey.Confidence != 0.95 || pkey.MinTrials != 3 {
		t.Errorf("normalized precision fields wrong in key: %+v", pkey)
	}
	if preq.Trials != svc.opts.MaxTrials {
		t.Errorf("precision request trials bound = %d, want server max %d", preq.Trials, svc.opts.MaxTrials)
	}
}

// TestPrecisionNormalization covers the spec's defaulting and validation
// matrix.
func TestPrecisionNormalization(t *testing.T) {
	svc := New(Options{Workers: 1, MaxTrials: 100, DefaultTrials: 5})
	defer svc.Close()

	// trials acts as the MaxTrials default when the spec leaves it zero.
	req, err := svc.normalize(EstimateRequest{Trials: 40, Precision: &PrecisionSpec{RelErr: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	if req.Precision.MaxTrials != 40 || req.Trials != 40 {
		t.Errorf("maxTrials default from trials: %+v", req.Precision)
	}
	// An explicit MaxTrials wins, and the server limit still applies.
	if _, err := svc.normalize(EstimateRequest{Precision: &PrecisionSpec{RelErr: 0.2, MaxTrials: 101}}); err == nil {
		t.Error("maxTrials beyond the server limit accepted")
	}
	// minTrials clamps to ≥ 2 and ≤ maxTrials.
	req, err = svc.normalize(EstimateRequest{Precision: &PrecisionSpec{RelErr: 0.2, MinTrials: 1, MaxTrials: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if req.Precision.MinTrials != 2 {
		t.Errorf("minTrials = %d, want clamped to 2", req.Precision.MinTrials)
	}
	// Normalization must not mutate the caller's spec (batches share one).
	shared := &PrecisionSpec{RelErr: 0.2}
	if _, err := svc.normalize(EstimateRequest{Precision: shared}); err != nil {
		t.Fatal(err)
	}
	if shared.Confidence != 0 || shared.MaxTrials != 0 {
		t.Errorf("caller's spec mutated by normalize: %+v", shared)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

// readSSE consumes events from an event stream until limit events or a
// terminal-state event arrives.
func readSSE(t *testing.T, r *bufio.Reader, limit int) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	for len(events) < limit {
		line, err := r.ReadString('\n')
		if err != nil {
			break
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.name != "":
			events = append(events, cur)
			if JobState(cur.name).Terminal() {
				return events
			}
			cur = sseEvent{}
		}
	}
	return events
}

// TestJobEventsSSE drives the events stream end to end: progress events
// while a long job runs, a terminal event named after the final state,
// and clean 404s for unknown ids. Cancellation mid-stream must surface as
// a "canceled" event rather than hanging the subscriber.
func TestJobEventsSSE(t *testing.T) {
	old := sseInterval
	sseInterval = 5 * time.Millisecond
	defer func() { sseInterval = old }()

	svc := New(Options{Workers: 2})
	defer svc.Close()
	if _, err := svc.AddGraph(GraphSpec{Standin: "enron", Scale: 512, Seed: 1, Name: "bench"}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/jobs/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job events: status %d, want 404", resp.StatusCode)
	}

	// A job long enough to stream progress from.
	info, err := svc.SubmitEstimateJob(EstimateRequest{Graph: "bench", Query: "brain3", Trials: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	go func() {
		// Give the stream time to observe some trials, then cancel.
		time.Sleep(300 * time.Millisecond)
		svc.CancelJob(info.ID)
	}()
	events := readSSE(t, bufio.NewReader(resp.Body), 10000)
	if len(events) < 2 {
		t.Fatalf("got %d events, want at least an initial progress and a terminal one", len(events))
	}
	last := events[len(events)-1]
	if last.name != string(JobCanceled) {
		t.Errorf("terminal event %q, want canceled", last.name)
	}
	progress := 0
	for _, e := range events[:len(events)-1] {
		if e.name != "progress" {
			t.Errorf("unexpected mid-stream event %q", e.name)
		}
		progress++
	}
	if progress == 0 {
		t.Error("no progress events before the terminal event")
	}

	// A finished job's stream replays its terminal event immediately.
	quick, err := svc.SubmitEstimateJob(EstimateRequest{Graph: "bench", Query: "glet1", Trials: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.WaitJob(nil, quick.ID, 10*time.Second); err != nil {
		t.Fatalf("quick job vanished: %v", err)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + quick.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events = readSSE(t, bufio.NewReader(resp.Body), 10)
	if len(events) == 0 || events[len(events)-1].name != string(JobDone) {
		t.Fatalf("finished job stream = %+v, want immediate done event", events)
	}
	if !strings.Contains(events[len(events)-1].data, quick.ID) {
		t.Errorf("terminal event data lacks the job info: %s", events[len(events)-1].data)
	}
}
