package service

import (
	"container/list"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/query"
	"repro/internal/sig"
)

// Key identifies one estimation request exactly: the data graph by
// topology fingerprint, the query by canonical labeled signature, and
// every knob that changes the estimate's bits — including, for
// precision-targeted requests, the declared target (two requests with
// different targets over the same trial stream may stop at different
// trial counts). Two requests with equal keys get byte-identical results,
// which is what makes singleflight coalescing sound. Fixed-trial requests
// leave the precision fields zero, so their keys are identical to the
// pre-precision API's (the compatibility-shim test pins this).
type Key struct {
	Graph     uint64 // Fingerprint of the data graph
	Query     string // QuerySignature of the query
	Algorithm core.Algorithm
	Backend   string // canonical execution backend; changes Stats, not counts
	Trials    int    // fixed trial count, or the adaptive MaxTrials bound
	Seed      int64
	Ranks     int // engine ranks/workers; changes Stats, not counts
	// Precision-targeted requests: the declared target. Zero for
	// fixed-trial requests.
	RelErr     float64
	Confidence float64
	MinTrials  int
}

// TrialKey identifies one seeded trial stream (durable.TrialKey). It is
// what makes the cache trial-granular: a request needing T trials is a
// pure hit against any entry holding ≥ T of them, a tighter request
// extends the entry instead of starting over, and a looser one
// prefix-slices it — every answer bit-identical to an uncached run at the
// same effective trial count.
type TrialKey = durable.TrialKey

// TrialKey projects the request key onto its trial stream: requests that
// differ only in trial count or precision target share trials.
func (k Key) TrialKey() TrialKey {
	return TrialKey{
		Graph:     k.Graph,
		Query:     k.Query,
		Algorithm: k.Algorithm,
		Backend:   k.Backend,
		Seed:      k.Seed,
		Ranks:     k.Ranks,
	}
}

// TrialRun is the accumulated state of one seeded trial stream:
// Counts[i] and Stats[i] are trial i's colorful count and engine
// counters. A longer run strictly extends a shorter one over the same
// TrialKey (trials are deterministic), so runs merge by keeping the
// longest.
type TrialRun struct {
	Counts []uint64
	Stats  []core.Stats
}

// Len returns the number of accumulated trials.
func (r TrialRun) Len() int { return len(r.Counts) }

// clone deep-copies a run: the cache and its callers must not share
// backing arrays, or a caller mutating its result would corrupt the value
// replayed to every later hit.
func (r TrialRun) clone() TrialRun {
	out := TrialRun{
		Counts: append([]uint64(nil), r.Counts...),
		Stats:  append([]core.Stats(nil), r.Stats...),
	}
	for i := range out.Stats {
		if out.Stats[i].Loads != nil {
			out.Stats[i].Loads = append([]int64(nil), out.Stats[i].Loads...)
		}
	}
	return out
}

// prefix returns a view of the first n trials (or the whole run when it
// is shorter). Views share backing arrays; clone before handing out.
func (r TrialRun) prefix(n int) TrialRun {
	if n <= 0 || n >= len(r.Counts) {
		return r
	}
	return TrialRun{Counts: r.Counts[:n], Stats: r.Stats[:n]}
}

// QuerySignature canonicalizes a labeled query graph as its node count
// followed by one sig.Sig adjacency bitmap per node. Edge insertion order
// and the query's display name do not affect it; queries too large for a
// bitmap row (K > sig.MaxColors, rejected by the solver anyway) fall back
// to an explicit edge list.
func QuerySignature(q *query.Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "k%d", q.K)
	if q.K > sig.MaxColors {
		for _, e := range q.Edges() {
			fmt.Fprintf(&b, ":%d-%d", e[0], e[1])
		}
		return b.String()
	}
	for v := 0; v < q.K; v++ {
		var row sig.Sig
		for _, w := range q.Neighbors(v) {
			row = row.Add(uint8(w))
		}
		fmt.Fprintf(&b, ":%x", uint32(row))
	}
	return b.String()
}

// CacheStats are the cache's observability counters. Hits count lookups
// that found an entry (of any length — the caller may still extend it);
// Extended counts entries grown in place by a later run reusing the
// cached prefix.
type CacheStats struct {
	Entries   int    `json:"entries" metric:"cache_entries" help:"Resident result-cache entries."`
	Trials    int    `json:"trials" metric:"cache_trials" help:"Trials accumulated across resident cache entries."`
	Capacity  int    `json:"capacity" metric:"cache_capacity" help:"Trial runs the result cache holds before it evicts."`
	Hits      uint64 `json:"hits" metric:"cache_hits_total" help:"Result-cache hits."`
	Misses    uint64 `json:"misses" metric:"cache_misses_total" help:"Result-cache misses."`
	Extended  uint64 `json:"extended" metric:"cache_extended_total" help:"Cache entries extended in place with freshly computed trials."`
	Evictions uint64 `json:"evictions" metric:"cache_evictions_total" help:"Result-cache evictions."`
	LockWait  `metric:"{layer=cache}"`
}

type centry struct {
	key TrialKey
	val TrialRun
}

// Cache is a bounded LRU map from trial-stream keys to accumulated
// per-trial runs: one mutex, one index, one recency list. Entries are
// trial-granular: Put merges by keeping the longest run (per-trial counts
// over one TrialKey are deterministic, so a longer run strictly extends a
// shorter one), and Get serves any prefix. The capacity is exact: the
// cache holds up to capacity runs and evicts only when a new key arrives
// at a full cache, always the least recently used one. It is safe for
// concurrent use; hits refresh recency.
type Cache struct {
	mu    waitMutex
	m     map[TrialKey]*list.Element
	lru   *list.List // front = most recently used
	stats CacheStats // all but Entries and LockWait, which Stats fills in
}

// NewCache returns a cache holding up to capacity trial runs (≤ 0 means
// 4096). The second argument is ignored: it was a shard count, and
// benchmark/serving_probes.go (not editable outside a [benchmark] PR)
// still passes one — ROADMAP "Ledger round 2 (f)" deletes it.
func NewCache(capacity, _ int) *Cache {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Cache{m: make(map[TrialKey]*list.Element), lru: list.New(), stats: CacheStats{Capacity: capacity}}
}

// Close does nothing: the cache owns no goroutine. It survives only
// because benchmark/serving_probes.go still calls it (ROADMAP "Ledger
// round 2 (f)").
func (c *Cache) Close() {}

// Get returns the cached trial run for k, if present — limited to the
// first limit trials when limit > 0 (a request never needs trials past
// its own bound, so the copy stays proportional to the request). The
// result is the caller's to mutate: the deep copy happens after the
// unlock — safe because a stored run's backing arrays are only ever
// replaced (Put installs a fresh clone), never mutated in place — so the
// critical section allocates nothing.
func (c *Cache) Get(k TrialKey, limit int) (TrialRun, bool) {
	c.mu.Lock()
	el, ok := c.m[k]
	if !ok {
		c.stats.Misses++
		c.mu.Unlock()
		return TrialRun{}, false
	}
	c.stats.Hits++
	c.lru.MoveToFront(el)
	v := el.Value.(*centry).val
	c.mu.Unlock()
	return v.prefix(limit).clone(), true
}

// Counts returns a copy of just the cached per-trial counts for k (up to
// limit when limit > 0), without cloning the per-trial engine stats. The
// adaptive stopping rule only needs the counts, so precision replays peek
// here first and then fetch exactly the stopping prefix with Get — the
// stats clone stays proportional to the trials actually used, not the
// request's worst-case bound. A peek, not a lookup: it refreshes recency
// but leaves the hit/miss counters to the Get (or the flight's Get) that
// follows, so each request still counts exactly once.
func (c *Cache) Counts(k TrialKey, limit int) ([]uint64, bool) {
	c.mu.Lock()
	el, ok := c.m[k]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	c.lru.MoveToFront(el)
	v := el.Value.(*centry).val
	c.mu.Unlock()
	counts := v.Counts
	if limit > 0 && limit < len(counts) {
		counts = counts[:limit]
	}
	return append([]uint64(nil), counts...), true
}

// Put stores a copy of the run under k, evicting the least-recently-used
// entry if the cache is full. Runs merge by length: a run no longer than
// the resident one only refreshes recency (the resident prefix is
// bit-identical by determinism), a longer one replaces it — counted as an
// extension when it grew a nonempty entry, the trial-reuse event the
// trial-granular cache exists for.
func (c *Cache) Put(k TrialKey, v TrialRun) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		ce := el.Value.(*centry)
		if cur := ce.val.Len(); cur < v.Len() {
			if cur > 0 {
				c.stats.Extended++
			}
			c.stats.Trials += v.Len() - cur
			ce.val = v.clone()
		}
		c.lru.MoveToFront(el)
		return
	}
	if c.lru.Len() >= c.stats.Capacity {
		ce := c.lru.Remove(c.lru.Back()).(*centry)
		c.stats.Trials -= ce.val.Len()
		delete(c.m, ce.key)
		c.stats.Evictions++
	}
	c.m[k] = c.lru.PushFront(&centry{key: k, val: v.clone()})
	c.stats.Trials += v.Len()
}

// Export snapshots every resident entry as a durable run record, by
// reference: the returned records share the cache's backing arrays. Safe
// to read concurrently with serving traffic because stored runs are only
// ever replaced whole (Put installs a fresh clone), never mutated in
// place — but callers must not write through them. Entries come out
// oldest-first, matching eviction order.
func (c *Cache) Export() []durable.RunRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]durable.RunRecord, 0, c.lru.Len())
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		ce := el.Value.(*centry)
		out = append(out, durable.NewRunRecord(ce.key, ce.val.Counts, ce.val.Stats))
	}
	return out
}

// Stats returns the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = c.lru.Len()
	st.LockWait = c.mu.wait()
	return st
}
