// Package service is the serving layer on top of the color-coding
// estimator: a graph registry that amortizes graph loading across queries,
// a result cache that amortizes whole estimations, and a bounded
// priority-scheduled worker pool that runs them concurrently. cmd/sgserve
// exposes it over HTTP.
package service

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"repro/internal/gen"
	"repro/internal/graph"
)

// GraphSpec describes how to obtain a data graph: exactly one of Path,
// Standin, PowerLawN, or RMATScale must be set. Two specs that normalize
// to the same source yield the same registry entry, so repeated
// registrations are free.
type GraphSpec struct {
	// Name optionally overrides the registry name of the graph; it defaults
	// to the name the loader or generator assigns.
	Name string `json:"name,omitempty"`

	// Path loads a SNAP-style whitespace edge list from disk.
	Path string `json:"path,omitempty"`

	// Standin builds the named Table 1 stand-in graph at 1/Scale of the
	// original size (Scale ≤ 0 means 512).
	Standin string `json:"standin,omitempty"`
	Scale   int    `json:"scale,omitempty"`

	// PowerLawN samples a Chung-Lu power-law graph with this many vertices
	// and exponent Alpha (≤ 0 means 1.5).
	PowerLawN int     `json:"powerlaw,omitempty"`
	Alpha     float64 `json:"alpha,omitempty"`

	// RMATScale samples an R-MAT graph with 2^RMATScale vertices and
	// EdgeFactor edges per vertex (≤ 0 means 16).
	RMATScale  int `json:"rmat,omitempty"`
	EdgeFactor int `json:"edgeFactor,omitempty"`

	// Seed feeds the generators; ignored for Path.
	Seed int64 `json:"seed,omitempty"`
}

// Generator size limits: the registry's memory budget only evicts graphs
// after they are resident, so the request-controlled generator parameters
// must be bounded up front or one registration OOMs the process before
// the budget applies.
const (
	// MaxPowerLawN caps generated power-law graph sizes (~16.7M vertices).
	MaxPowerLawN = 1 << 24
	// MaxRMATScale caps R-MAT at 2^24 vertices.
	MaxRMATScale = 24
	// MaxEdgeFactor caps R-MAT edges per vertex.
	MaxEdgeFactor = 64
)

// normalize fills defaults and validates that exactly one source is set.
func (sp GraphSpec) normalize() (GraphSpec, error) {
	set := 0
	if sp.Path != "" {
		set++
	}
	if sp.Standin != "" {
		set++
		if sp.Scale <= 0 {
			sp.Scale = 512
		}
	} else {
		sp.Scale = 0
	}
	if sp.PowerLawN > 0 {
		set++
		if sp.PowerLawN > MaxPowerLawN {
			return sp, fmt.Errorf("service: powerlaw size %d exceeds limit %d", sp.PowerLawN, MaxPowerLawN)
		}
		if sp.Alpha <= 0 {
			sp.Alpha = 1.5
		}
	} else {
		sp.PowerLawN = 0
		sp.Alpha = 0
	}
	if sp.RMATScale > 0 {
		set++
		if sp.RMATScale > MaxRMATScale {
			return sp, fmt.Errorf("service: rmat scale %d exceeds limit %d", sp.RMATScale, MaxRMATScale)
		}
		if sp.EdgeFactor <= 0 {
			sp.EdgeFactor = 16
		}
		if sp.EdgeFactor > MaxEdgeFactor {
			return sp, fmt.Errorf("service: rmat edge factor %d exceeds limit %d", sp.EdgeFactor, MaxEdgeFactor)
		}
	} else {
		sp.RMATScale = 0
		sp.EdgeFactor = 0
	}
	if set != 1 {
		return sp, fmt.Errorf("service: graph spec must set exactly one of path, standin, powerlaw, rmat (got %d)", set)
	}
	return sp, nil
}

// sourceKey identifies the graph source irrespective of the registry name,
// so the same edge list registered under two names is loaded once.
func (sp GraphSpec) sourceKey() string {
	switch {
	case sp.Path != "":
		return "path:" + sp.Path
	case sp.Standin != "":
		return fmt.Sprintf("standin:%s/%d@%d", sp.Standin, sp.Scale, sp.Seed)
	case sp.PowerLawN > 0:
		return fmt.Sprintf("powerlaw:%d/%g@%d", sp.PowerLawN, sp.Alpha, sp.Seed)
	default:
		return fmt.Sprintf("rmat:%d/%d@%d", sp.RMATScale, sp.EdgeFactor, sp.Seed)
	}
}

func (sp GraphSpec) build() (*graph.Graph, error) {
	switch {
	case sp.Path != "":
		return graph.LoadEdgeList(sp.Path)
	case sp.Standin != "":
		g, ok := gen.StandinByName(sp.Standin, sp.Scale, sp.Seed)
		if !ok {
			return nil, fmt.Errorf("service: unknown stand-in graph %q (known: %s)",
				sp.Standin, strings.Join(StandinNames(), ", "))
		}
		return g, nil
	case sp.PowerLawN > 0:
		rng := rand.New(rand.NewSource(sp.Seed))
		return gen.PowerLawGraph(fmt.Sprintf("powerlaw%d", sp.PowerLawN), sp.PowerLawN, sp.Alpha, rng), nil
	default:
		rng := rand.New(rand.NewSource(sp.Seed))
		return gen.RMAT(fmt.Sprintf("rmat%d", sp.RMATScale), sp.RMATScale, sp.EdgeFactor, gen.Graph500, rng), nil
	}
}

// approxBytes estimates the resident size of one registry entry: the
// graph's CSR arrays (8-byte offsets per vertex, two 4-byte neighbor
// entries per edge, a 4-byte rank per vertex) plus a flat floor for the
// entry bookkeeping (gentry, map entries, key strings). Without the
// floor, a flood of near-empty graphs would be accounted at ~20 bytes
// each and blow past the byte budget by orders of magnitude.
func approxBytes(g *graph.Graph) int64 {
	const entryOverhead = 512
	return entryOverhead + 8*int64(g.N()+1) + 8*g.M() + 4*int64(g.N())
}

// gentry is one registered graph. refs counts outstanding Handles; an
// entry is evictable only at refs == 0. Every mutable field is guarded by
// the registry's mutex.
type gentry struct {
	id          string
	name        string
	names       []string // every byRef key pointing here (id, name, aliases)
	sourceKey   string
	g           *graph.Graph
	stats       graph.Stats // computed once at load: the listing must not scan under the lock
	fingerprint uint64
	bytes       int64
	refs        int
	// LRU position: younger entries have larger ticks.
	lruTick uint64
}

// Handle is a reference-counted lease on a registered graph. The graph is
// immutable and safe for concurrent readers; Release must be called when
// done so the registry may evict the entry under memory pressure.
type Handle struct {
	r        *Registry
	e        *gentry
	released bool // guarded by r.mu
}

// Graph returns the held graph.
func (h *Handle) Graph() *graph.Graph { return h.e.g }

// Fingerprint returns the graph's topology fingerprint (graph.Fingerprint,
// computed at load time). Cache keys carry it, so renaming or
// re-registering a graph cannot alias another graph's cached runs.
func (h *Handle) Fingerprint() uint64 { return h.e.fingerprint }

// ID returns the registry id ("g1", "g2", ...).
func (h *Handle) ID() string { return h.e.id }

// Release returns the lease. Releasing twice is a no-op.
func (h *Handle) Release() {
	r := h.r
	r.mu.Lock()
	defer r.mu.Unlock()
	if h.released {
		return
	}
	h.released = true
	h.e.refs--
	r.evictLocked()
}

// RegistryStats are the registry's observability counters.
type RegistryStats struct {
	Graphs      int    `json:"graphs" metric:"registry_graphs" help:"Graphs currently resident."`
	Bytes       int64  `json:"bytes" metric:"registry_bytes" help:"Bytes of resident graph memory."`
	BudgetBytes int64  `json:"budgetBytes" metric:"registry_budget_bytes" help:"Resident graph bytes past which the registry evicts idle graphs."`
	Loads       uint64 `json:"loads" metric:"registry_loads_total" help:"Graph loads into the registry."`
	Hits        uint64 `json:"hits" metric:"registry_hits_total" help:"Registry lookups answered by a resident graph."`
	Evictions   uint64 `json:"evictions" metric:"registry_evictions_total" help:"Graphs evicted to fit the registry budget."`
	LockWait    `metric:"{layer=registry}"`
}

// GraphInfo describes one registered graph for listings and HTTP replies.
type GraphInfo struct {
	ID          string  `json:"id"`
	Name        string  `json:"name"`
	Nodes       int     `json:"nodes"`
	Edges       int64   `json:"edges"`
	AvgDeg      float64 `json:"avgDeg"`
	MaxDeg      int     `json:"maxDeg"`
	Bytes       int64   `json:"bytes"`
	Fingerprint string  `json:"fingerprint"`
	Refs        int     `json:"refs"`
}

// Registry loads each graph once and keeps it behind reference-counted
// handles. One mutex guards two maps (by source key and by ref: id, name,
// aliases) and one LRU order; graphs are built outside it. The memory
// budget is exact: whenever resident bytes exceed it — on the Add that
// goes over, or the Release that makes a graph idle — the least recently
// used idle graphs are evicted until the registry fits or only graphs
// held by running jobs remain, which are never evicted out from under
// them.
type Registry struct {
	mu      waitMutex
	tick    uint64
	nextID  uint64
	bySrc   map[string]*gentry
	byRef   map[string]*gentry
	entries []*gentry     // registration order
	stats   RegistryStats // all but Graphs and LockWait, which Stats fills in
}

// NewRegistry returns a registry with the given memory budget in bytes
// (≤ 0 means 1 GiB). A single graph larger than the budget is still
// admitted; the budget bounds what is kept around.
func NewRegistry(budgetBytes int64) *Registry {
	if budgetBytes <= 0 {
		budgetBytes = 1 << 30
	}
	return &Registry{
		bySrc: make(map[string]*gentry),
		byRef: make(map[string]*gentry),
		stats: RegistryStats{BudgetBytes: budgetBytes},
	}
}

// Add registers (or re-resolves) the graph described by spec and returns a
// handle to it. The same source is loaded once: a second Add with an
// equivalent spec is a registry hit and returns the existing entry.
func (r *Registry) Add(spec GraphSpec) (*Handle, error) {
	spec, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	src := spec.sourceKey()

	r.mu.Lock()
	if e, ok := r.bySrc[src]; ok {
		h, err := r.aliasAcquireLocked(e, spec.Name)
		r.mu.Unlock()
		return h, err
	}
	r.mu.Unlock()

	// Load outside the lock: generators and disk reads can take seconds and
	// must not block unrelated lookups.
	g, err := spec.build()
	if err != nil {
		return nil, err
	}
	fp, stats := g.Fingerprint(), g.Stats()

	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.bySrc[src]; ok {
		// Lost a race with a concurrent Add of the same source; the
		// requested name must still become an alias of the winner.
		return r.aliasAcquireLocked(e, spec.Name)
	}
	// An explicitly requested name that is already taken fails the whole
	// registration, before an id is burned on it.
	if _, taken := r.byRef[spec.Name]; taken { // "" is never a key
		return nil, fmt.Errorf("service: graph name %q already in use", spec.Name)
	}
	e := &gentry{
		sourceKey:   src,
		g:           g,
		stats:       stats,
		fingerprint: fp,
		bytes:       approxBytes(g),
	}
	// Draw an auto id, skipping any a user has squatted on with an explicit
	// name ("g3").
	for {
		r.nextID++
		e.id = fmt.Sprintf("g%d", r.nextID)
		if _, taken := r.byRef[e.id]; !taken {
			break
		}
	}
	e.name = spec.Name
	if e.name == "" {
		e.name = g.Name
	}
	// Auto-derived names (generators reuse display names like
	// "powerlaw500") must not conflict: fall back to the unique id.
	if _, taken := r.byRef[e.name]; taken || e.name == "" {
		e.name = e.id
	}
	for _, n := range []string{e.id, e.name} {
		if r.byRef[n] != e {
			r.byRef[n] = e
			e.names = append(e.names, n)
		}
	}
	r.bySrc[src] = e
	r.entries = append(r.entries, e)
	r.stats.Bytes += e.bytes
	r.stats.Loads++
	h := r.acquireLocked(e)
	r.evictLocked()
	return h, nil
}

// aliasAcquireLocked resolves a registration that hit an existing entry:
// the requested name (if any) becomes one more alias, and the entry is
// acquired.
func (r *Registry) aliasAcquireLocked(e *gentry, name string) (*Handle, error) {
	if name != "" {
		switch cur, taken := r.byRef[name]; {
		case !taken:
			r.byRef[name] = e
			e.names = append(e.names, name)
		case cur != e:
			return nil, fmt.Errorf("service: graph name %q already in use", name)
		}
	}
	r.stats.Hits++
	return r.acquireLocked(e), nil
}

// Acquire resolves a registered graph by id or name.
func (r *Registry) Acquire(ref string) (*Handle, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.byRef[ref]
	if !ok {
		return nil, false
	}
	r.stats.Hits++
	return r.acquireLocked(e), true
}

func (r *Registry) acquireLocked(e *gentry) *Handle {
	e.refs++
	r.tick++
	e.lruTick = r.tick
	return &Handle{r: r, e: e}
}

// evictLocked drops the least-recently-used idle entries while the
// registry is over budget (or until nothing is evictable). Every byRef
// key of a victim is removed, so an evicted entry can never be resolved
// again and its graph is free for GC.
func (r *Registry) evictLocked() {
	for r.stats.Bytes > r.stats.BudgetBytes {
		vi := -1
		for i, e := range r.entries {
			if e.refs == 0 && (vi < 0 || e.lruTick < r.entries[vi].lruTick) {
				vi = i
			}
		}
		if vi < 0 {
			return
		}
		victim := r.entries[vi]
		r.entries = slices.Delete(r.entries, vi, vi+1)
		delete(r.bySrc, victim.sourceKey)
		for _, n := range victim.names {
			delete(r.byRef, n)
		}
		r.stats.Bytes -= victim.bytes
		r.stats.Evictions++
	}
}

// List returns the live entries in registration order.
func (r *Registry) List() []GraphInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []GraphInfo
	for _, e := range r.entries {
		out = append(out, infoLocked(e))
	}
	return out
}

// Info returns the listing entry for one graph by id or name.
func (r *Registry) Info(ref string) (GraphInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.byRef[ref]
	if !ok {
		return GraphInfo{}, false
	}
	return infoLocked(e), true
}

func infoLocked(e *gentry) GraphInfo {
	st := e.stats
	return GraphInfo{
		ID:          e.id,
		Name:        e.name,
		Nodes:       st.Nodes,
		Edges:       st.Edges,
		AvgDeg:      st.AvgDeg,
		MaxDeg:      st.MaxDeg,
		Bytes:       e.bytes,
		Fingerprint: fmt.Sprintf("%016x", e.fingerprint),
		Refs:        e.refs,
	}
}

// Stats returns the registry counters.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats
	st.Graphs = len(r.entries)
	st.LockWait = r.mu.wait()
	return st
}

// StandinNames returns the known stand-in graph names, for error messages.
func StandinNames() []string {
	specs := gen.StandinSpecs()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}
