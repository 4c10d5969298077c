package cluster

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// keyCorpus returns n deterministic pseudo-key hashes, standing in for
// TrialKey hashes (any well-mixed 64-bit values).
func keyCorpus(n int) []uint64 {
	rng := rand.New(rand.NewSource(42))
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

func members(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "10.0.0." + string(rune('1'+i)) + ":8080"
	}
	return out
}

// TestRingDeterministic pins the routing contract the whole cluster
// design rests on: key→home is a pure function of the member set —
// identical across independently built rings (separate replicas),
// rebuilt rings (process restarts), and member-list input orders
// (differently written -peers flags).
func TestRingDeterministic(t *testing.T) {
	ms := members(5)
	a, err := NewRing(ms, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Shuffled member order, fresh build: another replica's view.
	shuffled := append([]string(nil), ms...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	b, err := NewRing(shuffled, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild of the first: a restart.
	c, err := NewRing(ms, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keyCorpus(10000) {
		ha, hb, hc := a.Owner(k), b.Owner(k), c.Owner(k)
		if ha != hb || ha != hc {
			t.Fatalf("key %x: owners disagree: %q / %q / %q", k, ha, hb, hc)
		}
	}
}

// TestRingOwnerIsMember checks every lookup lands on a configured
// member, including at the ring's wrap point.
func TestRingOwnerIsMember(t *testing.T) {
	ms := members(3)
	r, err := NewRing(ms, 0)
	if err != nil {
		t.Fatal(err)
	}
	valid := map[string]bool{}
	for _, m := range ms {
		valid[m] = true
	}
	probes := append(keyCorpus(1000), 0, ^uint64(0)) // extremes force the wrap
	for _, k := range probes {
		if !valid[r.Owner(k)] {
			t.Fatalf("key %x: owner %q is not a member", k, r.Owner(k))
		}
	}
}

// TestRingRemapFraction is the consistent-hashing property: removing
// one of N members remaps only that member's keys (~1/N of the corpus),
// and every key whose owner survived keeps its owner exactly.
func TestRingRemapFraction(t *testing.T) {
	const n = 5
	ms := members(n)
	full, err := NewRing(ms, 0)
	if err != nil {
		t.Fatal(err)
	}
	removed := ms[2]
	smaller, err := NewRing(append(append([]string(nil), ms[:2]...), ms[3:]...), 0)
	if err != nil {
		t.Fatal(err)
	}
	corpus := keyCorpus(20000)
	moved := 0
	for _, k := range corpus {
		before, after := full.Owner(k), smaller.Owner(k)
		if before == after {
			continue
		}
		if before != removed {
			t.Fatalf("key %x moved %q → %q though %q was not removed", k, before, after, removed)
		}
		moved++
	}
	frac := float64(moved) / float64(len(corpus))
	// The removed member owned ~1/N of the space; vnode placement noise
	// stays well inside [0.5/N, 2/N] at 128 vnodes over 20k keys.
	if frac < 0.5/n || frac > 2.0/n {
		t.Fatalf("removal remapped %.3f of keys; want ~%.3f (1/N)", frac, 1.0/n)
	}
}

// TestRingBalance sanity-checks the vnode count: no member owns a
// pathological share of a large random corpus — for four members spread
// over addresses, and for three on one host at random ports, the topology
// of the tests and the smoke script, whose virtual nodes' names differ only
// in a few bytes and must still land apart on the ring.
func TestRingBalance(t *testing.T) {
	corpus := keyCorpus(20000)
	shares := func(ms []string) (lo, hi float64) {
		r, err := NewRing(ms, 0)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]int{}
		for _, k := range corpus {
			counts[r.Owner(k)]++
		}
		lo = 1
		for _, m := range ms {
			frac := float64(counts[m]) / float64(len(corpus))
			lo, hi = min(lo, frac), max(hi, frac)
		}
		return lo, hi
	}
	if lo, hi := shares(members(4)); lo < 0.5/4 || hi > 2.0/4 {
		t.Fatalf("four members own %.3f to %.3f of keys; want within [%.3f, %.3f]", lo, hi, 0.5/4, 2.0/4)
	}
	rng := rand.New(rand.NewSource(3))
	for range 50 {
		var ms []string
		for range 3 {
			ms = append(ms, fmt.Sprintf("127.0.0.1:%d", 32768+rng.Intn(28232)))
		}
		if lo, hi := shares(ms); lo < 0.25 || hi > 0.45 {
			t.Fatalf("%v own %.3f to %.3f of keys; want within [0.25, 0.45]", ms, lo, hi)
		}
	}
}

func TestRingRejectsEmpty(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("want error for empty membership")
	}
	if _, err := NewRing([]string{"a:1", ""}, 0); err == nil {
		t.Fatal("want error for empty member address")
	}
}

// TestRingMatchesServiceHash cross-checks that the ring accepts raw
// FNV-1a hashes (what the service layer feeds it) without further
// mixing assumptions: two distinct inputs map somewhere, same input
// maps identically.
func TestRingMatchesServiceHash(t *testing.T) {
	r, err := NewRing(members(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write([]byte("k5:3:5:9:11:6"))
	k := h.Sum64()
	if r.Owner(k) != r.Owner(k) {
		t.Fatal("same hash, different owners")
	}
}
