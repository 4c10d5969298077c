package service

import (
	"context"
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

// TestShedLoad503CarriesRetryAfter: the load-shedding errors are the
// service's 503s; both must tell clients when to come back.
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

// streamService opens a service over opts with a stand-in graph "g" and
// returns it with an estimate request over that graph and the trial
// stream the request reads. The service closes when the test ends.
func streamService(t testing.TB, opts Options) (*Service, EstimateRequest, TrialKey) {
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

// TestReplaySkipsMismatchedRun: a logged run whose counts and stats differ
// in length is skipped at replay — neither counted nor cached — while the
// record after it still replays, and an estimate over the skipped stream
// computes.
func TestReplaySkipsMismatchedRun(t *testing.T) {
	_, req, tk := streamService(t, Options{})
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

	svc, _, _ := streamService(t, Options{Durability: DurabilityOptions{Dir: dir}})
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
