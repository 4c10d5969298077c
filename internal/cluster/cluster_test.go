package cluster

import (
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func quiet() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func TestClusterAllowAndReports(t *testing.T) {
	c, err := New(Options{
		Self:        "a:1",
		Members:     []string{"a:1", "b:2", "c:3"},
		HealthEvery: -1, // no background checker; this test drives state by hand
		Logger:      quiet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Allow("a:1") {
		t.Fatal("self must never be a forward target")
	}
	if c.Allow("unknown:9") {
		t.Fatal("non-members must never be forward targets")
	}
	if !c.Allow("b:2") {
		t.Fatal("fresh peer not allowed; peers must start optimistic")
	}
	c.ReportFailure("b:2", fmt.Errorf("refused"), true)
	if c.Allow("b:2") {
		t.Fatal("peer allowed after a failed forward")
	}
	if !c.Allow("c:3") {
		t.Fatal("unrelated peer affected by b's failure")
	}
	c.ReportSuccess("b:2", true)
	if !c.Allow("b:2") {
		t.Fatal("peer still rejected after it served a request")
	}
	c.ReportFailure("b:2", fmt.Errorf("handoff refused"), false) // a handoff push: liveness only
	st := c.Stats()
	if st.Self != "a:1" || len(st.Members) != 3 || len(st.Peers) != 2 {
		t.Fatalf("stats shape wrong: %+v", st)
	}
	for _, p := range st.Peers {
		if p.Addr == "b:2" && (p.Up || p.Forwards != 1 || p.Failures != 1 || p.LastError != "handoff refused") {
			t.Fatalf("b:2 state wrong: %+v", p)
		}
	}
}

func TestClusterHealthProbes(t *testing.T) {
	var mu sync.Mutex
	down := map[string]bool{"b:2": true}
	c, err := New(Options{
		Self:        "a:1",
		Members:     []string{"a:1", "b:2", "c:3"},
		HealthEvery: -1,
		Probe: func(addr string) error {
			mu.Lock()
			defer mu.Unlock()
			if down[addr] {
				return fmt.Errorf("probe: %s down", addr)
			}
			return nil
		},
		Logger: quiet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.CheckOnce()
	if c.Allow("b:2") {
		t.Fatal("unhealthy peer allowed")
	}
	if !c.Allow("c:3") {
		t.Fatal("healthy peer rejected")
	}
	for _, p := range c.Stats().Peers {
		if p.Addr == "b:2" && (p.Up || p.LastError == "") {
			t.Fatalf("b:2 should be down with a lastError: %+v", p)
		}
	}
	mu.Lock()
	down["b:2"] = false
	mu.Unlock()
	c.CheckOnce()
	if !c.Allow("b:2") {
		t.Fatal("recovered peer still rejected")
	}
}

// healthLoops counts the live goroutines running a cluster's health loop.
func healthLoops() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "cluster.(*Cluster).healthLoop(")
}

// TestHealthLoopFollowsPeerUntilClose: with a cadence set, the background
// checker — not a CheckOnce the caller makes — marks a peer down when its
// probe fails and up again when it recovers, and Close returns only once
// that goroutine has exited.
func TestHealthLoopFollowsPeerUntilClose(t *testing.T) {
	before := healthLoops()
	var down atomic.Bool
	down.Store(true)
	c, err := New(Options{
		Self:        "a:1",
		Members:     []string{"a:1", "b:2"},
		HealthEvery: 5 * time.Millisecond,
		Probe: func(addr string) error {
			if down.Load() {
				return fmt.Errorf("probe: %s down", addr)
			}
			return nil
		},
		Logger: quiet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	awaitUp := func(want bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); c.Stats().Peers[0].Up != want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				c.Close()
				t.Fatalf("the health loop never reported up=%v", want)
			}
		}
	}
	awaitUp(false) // peers start up: only a probe from the loop can have said otherwise
	if got := healthLoops(); got != before+1 {
		t.Errorf("%d health loops running, want %d", got, before+1)
	}
	down.Store(false)
	awaitUp(true)
	c.Close()
	// Close has seen the loop's last deferred call; the goroutine is gone a
	// few instructions later.
	for i := 0; i < 100 && healthLoops() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := healthLoops(); got != before {
		t.Errorf("%d health loops outlive Close, want %d", got, before)
	}
}

// TestClusterSelfAddedToMembers checks -peers lists that omit the
// replica's own address still yield the full ring.
func TestClusterSelfAddedToMembers(t *testing.T) {
	c, err := New(Options{
		Self:        "a:1",
		Members:     []string{"b:2", "c:3"},
		HealthEvery: -1,
		Logger:      quiet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := len(c.Members()); got != 3 {
		t.Fatalf("members = %d, want 3 (self auto-added)", got)
	}
	// Ownership must match a replica that was configured with the full
	// explicit list.
	full, err := New(Options{
		Self:        "b:2",
		Members:     []string{"a:1", "b:2", "c:3"},
		HealthEvery: -1,
		Logger:      quiet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	for _, k := range keyCorpus(2000) {
		if c.Owner(k) != full.Owner(k) {
			t.Fatalf("key %x: owner differs between auto-added and explicit membership", k)
		}
	}
}
