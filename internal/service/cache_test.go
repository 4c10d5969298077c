package service_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/service"
)

func key(i int) service.TrialKey {
	return service.TrialKey{Graph: uint64(i), Query: "k3:6:5:3", Seed: 1, Ranks: 4}
}

// run builds a deterministic trial run for key i holding n trials: trial
// t's count is i*1000+t, so prefixes are checkable.
func run(i, n int) service.TrialRun {
	r := service.TrialRun{Counts: make([]uint64, n), Stats: make([]core.Stats, n)}
	for t := range r.Counts {
		r.Counts[t] = uint64(i*1000 + t)
	}
	return r
}

func TestCacheLRUEvictionOrder(t *testing.T) {
	c := service.NewCache(2, 0)
	c.Put(key(1), run(1, 3))
	c.Put(key(2), run(2, 3))
	if _, ok := c.Get(key(1), 0); !ok { // refresh 1: now 2 is the LRU entry
		t.Fatal("key 1 missing")
	}
	c.Put(key(3), run(3, 3)) // evicts 2, not 1
	if _, ok := c.Get(key(2), 0); ok {
		t.Error("key 2 should have been evicted as least recently used")
	}
	if v, ok := c.Get(key(1), 0); !ok || v.Counts[0] != 1000 {
		t.Errorf("key 1 should survive; got %+v ok=%v", v, ok)
	}
	if v, ok := c.Get(key(3), 0); !ok || v.Counts[0] != 3000 {
		t.Errorf("key 3 should be present; got %+v ok=%v", v, ok)
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
	if st.Trials != 6 {
		t.Errorf("trials = %d, want 6 across 2 entries", st.Trials)
	}
}

// TestCacheHoldsExactlyCapacity: the capacity is a count of runs, not an
// expectation over hash buckets — a capacity-64 cache keeps any 64 keys
// with no eviction, and the 65th evicts exactly the least recently used.
func TestCacheHoldsExactlyCapacity(t *testing.T) {
	const capacity = 64
	rng := rand.New(rand.NewSource(19))
	c := service.NewCache(capacity, 0)
	keys := make([]service.TrialKey, capacity+1)
	for i := range keys {
		keys[i] = service.TrialKey{
			Graph: rng.Uint64(),
			Query: fmt.Sprintf("k%d:%x", 3+rng.Intn(8), rng.Uint32()),
			Seed:  rng.Int63(),
			Ranks: 1 + rng.Intn(8),
		}
	}
	for i, k := range keys[:capacity] {
		c.Put(k, run(i, 1+i%3))
	}
	if st := c.Stats(); st.Entries != capacity || st.Evictions != 0 {
		t.Fatalf("after %d puts into capacity %d: %d entries, %d evictions",
			capacity, capacity, st.Entries, st.Evictions)
	}
	// Touch every key but keys[5], in order: keys[5] is now the LRU entry.
	for i, k := range keys[:capacity] {
		if i == 5 {
			continue
		}
		if _, ok := c.Get(k, 0); !ok {
			t.Fatalf("key %d missing from a cache that never evicted", i)
		}
	}
	c.Put(keys[capacity], run(capacity, 1))
	if st := c.Stats(); st.Entries != capacity || st.Evictions != 1 {
		t.Fatalf("the 65th key should evict exactly one: %+v", st)
	}
	for i, k := range keys {
		if _, ok := c.Counts(k, 0); ok == (i == 5) {
			t.Errorf("key %d resident = %v; only the least recently used (5) should be gone", i, ok)
		}
	}
}

// TestCacheMergeKeepsLongestRun is the trial-granular contract: a longer
// run extends the entry (counted as an extension), an equal or shorter
// one only refreshes recency — the resident prefix is already identical
// by determinism, so nothing is overwritten or truncated.
func TestCacheMergeKeepsLongestRun(t *testing.T) {
	c := service.NewCache(4, 0)
	c.Put(key(1), run(1, 3))
	c.Put(key(1), run(1, 8)) // extension: 3 → 8 trials
	if v, _ := c.Get(key(1), 0); v.Len() != 8 {
		t.Fatalf("entry holds %d trials, want 8 after extension", v.Len())
	}
	c.Put(key(1), run(1, 5)) // shorter re-put must not shrink the entry
	v, _ := c.Get(key(1), 0)
	if v.Len() != 8 {
		t.Fatalf("entry holds %d trials, want 8 after shorter re-put", v.Len())
	}
	for t2, want := range v.Counts {
		if v.Counts[t2] != uint64(1000+t2) {
			t.Fatalf("trial %d count %d, want %d", t2, v.Counts[t2], want)
		}
	}
	st := c.Stats()
	if st.Extended != 1 {
		t.Errorf("extended = %d, want exactly 1 (the 3→8 grow)", st.Extended)
	}
	if st.Entries != 1 || st.Trials != 8 {
		t.Errorf("entries/trials = %d/%d, want 1/8", st.Entries, st.Trials)
	}
}

// TestCacheGetPrefixLimit: a bounded Get copies only the requested
// prefix — a request never pays for trials past its own bound.
func TestCacheGetPrefixLimit(t *testing.T) {
	c := service.NewCache(4, 0)
	c.Put(key(1), run(1, 10))
	v, ok := c.Get(key(1), 4)
	if !ok || v.Len() != 4 || len(v.Stats) != 4 {
		t.Fatalf("limited Get returned %d trials, want 4", v.Len())
	}
	if v.Counts[3] != 1003 {
		t.Errorf("prefix content wrong: %v", v.Counts)
	}
	if v, _ := c.Get(key(1), 99); v.Len() != 10 {
		t.Errorf("over-limit Get returned %d trials, want all 10", v.Len())
	}
}

// TestCacheConcurrent hammers one cache from many goroutines with mixed
// lengths; run under -race. It checks the counters stay consistent, the
// capacity bound holds, and entries only ever grow.
func TestCacheConcurrent(t *testing.T) {
	const (
		workers = 8
		ops     = 2000
		keys    = 24 // working set fits the cache, so hits occur
		cap     = 32
	)
	c := service.NewCache(cap, 0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := key((w*31 + i*7) % keys)
				n := 1 + (w+i)%4
				if v, ok := c.Get(k, 0); ok {
					if v.Counts[0] != uint64(int(k.Graph)*1000) {
						t.Errorf("cache returned wrong value for key %d: %v", k.Graph, v.Counts)
						return
					}
				} else {
					c.Put(k, run(int(k.Graph), n))
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries > cap {
		t.Errorf("entries = %d exceeds capacity %d", st.Entries, cap)
	}
	if st.Hits+st.Misses != workers*ops {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, workers*ops)
	}
	if st.Misses == 0 || st.Hits == 0 {
		t.Errorf("expected both hits and misses, got %+v", st)
	}
}

// TestCacheIsolatesSlices checks callers and the cache never share
// backing arrays in either direction — counts and per-trial stats both.
func TestCacheIsolatesSlices(t *testing.T) {
	c := service.NewCache(4, 0)
	orig := service.TrialRun{
		Counts: []uint64{1, 2, 3},
		Stats:  []core.Stats{{Loads: []int64{7}}, {}, {}},
	}
	c.Put(key(1), orig)
	orig.Counts[0] = 99 // caller mutates after Put
	orig.Stats[0].Loads[0] = 99
	got, ok := c.Get(key(1), 0)
	if !ok || got.Counts[0] != 1 || got.Stats[0].Loads[0] != 7 {
		t.Errorf("Put did not copy run: got %+v", got)
	}
	got.Counts[1] = 77 // caller mutates a hit
	again, _ := c.Get(key(1), 0)
	if again.Counts[1] != 2 {
		t.Errorf("Get did not copy Counts: got %v", again.Counts)
	}
}

func TestQuerySignature(t *testing.T) {
	// Insertion order must not matter; topology and labels must.
	a := query.FromEdges("a", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	b := query.FromEdges("b", 4, [][2]int{{3, 0}, {2, 3}, {0, 1}, {2, 1}})
	if service.QuerySignature(a) != service.QuerySignature(b) {
		t.Errorf("same labeled graph, different signatures:\n%s\n%s",
			service.QuerySignature(a), service.QuerySignature(b))
	}
	c := query.FromEdges("c", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {1, 3}})
	if service.QuerySignature(a) == service.QuerySignature(c) {
		t.Error("different topologies share a signature")
	}
	d := query.FromEdges("d", 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if service.QuerySignature(a) == service.QuerySignature(d) {
		t.Error("different node counts share a signature")
	}
}
