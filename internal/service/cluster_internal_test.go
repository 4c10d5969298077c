package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/durable"
)

// TestTrialKeyHashIsFrozen pins the ring's placement hash to the values
// it has had since the ring shipped: a key whose hash moves changes home,
// and every replica's cached runs for it are stranded.
func TestTrialKeyHashIsFrozen(t *testing.T) {
	for _, c := range []struct {
		key  TrialKey
		want uint64
	}{
		{TrialKey{}, 0xcbf7a16bc31f675f},
		{TrialKey{Graph: 0xfeedfacecafebeef, Query: "k5:1e:1d:1b:17:f", Algorithm: core.DB,
			Backend: "parallel", Seed: -7, Ranks: 4}, 0x30b9ea9ce513f7c4},
		{TrialKey{Graph: 1, Query: "k3:6:5:3", Algorithm: core.PS,
			Backend: "sim", Seed: 1 << 40, Ranks: 1}, 0x5e417dcd673976ee},
	} {
		if got := ringHash(c.key); got != c.want {
			t.Errorf("ringHash(%+v) = %#x, want %#x", c.key, got, c.want)
		}
	}
}

// TestReadyzReportsHandoffReplay: /readyz flips to 503 (with Retry-After)
// exactly while a handoff import replay is in flight, and back to 200
// when it drains — the signal peers and routers use to stop preferring a
// replica mid-warm. Driven via the counter directly: the HTTP import path
// is exercised end to end by the external cluster tests.
func TestReadyzReportsHandoffReplay(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()

	rec := httptest.NewRecorder()
	s.handleReadyz(rec, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("idle /readyz = %d, want 200", rec.Code)
	}

	s.handoffActive.Add(1)
	rec = httptest.NewRecorder()
	s.handleReadyz(rec, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during handoff = %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != retryAfterSeconds {
		t.Errorf("Retry-After = %q, want %q", got, retryAfterSeconds)
	}

	s.handoffActive.Add(-1)
	rec = httptest.NewRecorder()
	s.handleReadyz(rec, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/readyz after handoff = %d, want 200", rec.Code)
	}
}

// TestShedLoad503CarriesRetryAfter: the load-shedding errors are the
// other 503 source; both must tell clients when to come back.
func TestShedLoad503CarriesRetryAfter(t *testing.T) {
	for _, err := range []error{ErrQueueFull, ErrClosed} {
		rec := httptest.NewRecorder()
		writeError(rec, err)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%v → %d, want 503", err, rec.Code)
		}
		if got := rec.Header().Get("Retry-After"); got != retryAfterSeconds {
			t.Errorf("%v: Retry-After = %q, want %q", err, got, retryAfterSeconds)
		}
	}
}

// quiet discards a test service's logs.
var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// handoffService opens a service over opts with a stand-in graph "g" and
// returns it with an estimate request over that graph and the trial
// stream the request reads. The service closes when the test ends.
func handoffService(t testing.TB, opts Options) (*Service, EstimateRequest, TrialKey) {
	t.Helper()
	opts.Workers, opts.Logger = 1, quiet
	svc := New(opts)
	t.Cleanup(svc.Close)
	if _, err := svc.AddGraph(GraphSpec{Standin: "enron", Scale: 512, Seed: 1, Name: "g"}); err != nil {
		t.Fatal(err)
	}
	req := EstimateRequest{Graph: "g", Query: "glet1", Trials: 3, Seed: 7}
	rr, err := svc.resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	rr.h.Release()
	return svc, req, rr.key.TrialKey()
}

// mismatchedRun is a run over k with three counts and no stats: one that
// Check refuses, and that a prefix slice of would panic on.
func mismatchedRun(k TrialKey) durable.RunRecord {
	return durable.NewRunRecord(k, []uint64{1, 2, 3}, nil)
}

// handoffBody is the import body for runs, as pushRuns writes it.
func handoffBody(t testing.TB, runs ...durable.RunRecord) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{"runs": runs})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// importRuns posts body to s's handoff import and returns the status.
func importRuns(s *Service, body []byte) int {
	rec := httptest.NewRecorder()
	s.handleClusterImport(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/runs", bytes.NewReader(body)))
	return rec.Code
}

// wantComputed runs req with 2 trials — fewer than the 3 a mismatched run
// holds, so serving such a run would slice it — and requires a fresh
// computation.
func wantComputed(t *testing.T, svc *Service, req EstimateRequest) {
	t.Helper()
	req.Trials = 2
	res, err := svc.Estimate(context.Background(), req)
	if err != nil || res.Cached || res.Estimate.Trials != 2 {
		t.Fatalf("estimate: cached %v, %d trials, err %v; want a 2-trial computation", res.Cached, res.Estimate.Trials, err)
	}
}

// TestClusterImportRejectsMismatchedRun: a handoff batch holding one run
// whose counts and stats differ in length is refused whole with 400 and
// stores nothing, so a later request over that stream computes instead of
// slicing a run that cannot be served.
func TestClusterImportRejectsMismatchedRun(t *testing.T) {
	svc, req, tk := handoffService(t, Options{})
	other := tk
	other.Seed++
	good := durable.NewRunRecord(other, []uint64{4, 5, 6}, make([]core.Stats, 3))
	if code := importRuns(svc, handoffBody(t, good, mismatchedRun(tk))); code != http.StatusBadRequest {
		t.Fatalf("import of a batch with a mismatched run = %d, want 400", code)
	}
	if n := svc.Stats().Cache.Entries; n != 0 {
		t.Fatalf("the refused batch left %d cache entries", n)
	}
	wantComputed(t, svc, req)
}

// TestReplaySkipsMismatchedRun: a logged run whose counts and stats differ
// in length is skipped at replay — neither counted nor cached — while the
// record after it still replays, and an estimate over the skipped stream
// computes.
func TestReplaySkipsMismatchedRun(t *testing.T) {
	_, req, tk := handoffService(t, Options{})
	other := tk
	other.Seed++
	dir := t.TempDir()
	log, _, err := durable.Open(durable.Options{Dir: dir, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	log.AppendRun(mismatchedRun(tk))
	log.AppendRun(durable.NewRunRecord(other, []uint64{4, 5, 6}, make([]core.Stats, 3)))
	log.Close()

	svc, _, _ := handoffService(t, Options{Durability: DurabilityOptions{Dir: dir}})
	if st := svc.Stats(); st.Durable.ReplayedRuns != 1 || st.Cache.Entries != 1 {
		t.Fatalf("replayed %d runs into %d entries, want the good record alone", st.Durable.ReplayedRuns, st.Cache.Entries)
	}
	if _, ok := svc.cache.Get(tk, 0); ok {
		t.Fatal("the mismatched stream was cached")
	}
	if _, ok := svc.cache.Get(other, 0); !ok {
		t.Fatal("the record after the mismatched one did not replay")
	}
	wantComputed(t, svc, req)
}

// FuzzClusterImport feeds hostile bodies to the handoff import. Nothing
// may panic, the answer is 200 or 400, and after a 200 every stored
// stream serves each of its prefixes with as many stats as counts. The
// seeds are a computed stream's export, as the rebalance sends it, and
// the same batch with a mismatched run added.
func FuzzClusterImport(f *testing.F) {
	svc, req, tk := handoffService(f, Options{})
	if _, err := svc.Estimate(context.Background(), req); err != nil {
		f.Fatal(err)
	}
	runs := svc.Cache().Export()
	f.Add(handoffBody(f, runs...))
	tk.Seed++ // a stream of its own: a run no longer than the one stored is not kept
	f.Add(handoffBody(f, append(runs, mismatchedRun(tk))...))
	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Options{Workers: 1, Logger: quiet})
		defer s.Close()
		switch code := importRuns(s, body); code {
		case http.StatusBadRequest:
			return
		case http.StatusOK:
		default:
			t.Fatalf("import answered %d, want 200 or 400", code)
		}
		for _, rec := range s.cache.Export() {
			for n := 1; n <= len(rec.Counts); n++ {
				run, ok := s.cache.Get(rec.Key(), n)
				if !ok || run.Len() != n || len(run.Stats) != n {
					t.Fatalf("stored stream %+v serves %d counts and %d stats for a %d-trial prefix (found %v)",
						rec.Key(), run.Len(), len(run.Stats), n, ok)
				}
			}
		}
	})
}
