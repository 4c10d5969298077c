package service

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
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
		if got := c.key.hash(); got != c.want {
			t.Errorf("hash(%+v) = %#x, want %#x", c.key, got, c.want)
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
