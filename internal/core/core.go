// Package core implements the paper's contribution: colorful subgraph
// counting for treewidth-2 queries, written once against engine.Backend
// and run unchanged on the sim, parallel and dist runtimes. The
// decomposition tree is traversed bottom-up (§4.2); leaf-edge blocks
// and cycle blocks are solved by join operations over projection tables
// (§4.3, §5), with two interchangeable cycle solvers:
//
//   - PS (Path Splitting, §5.1 Figure 4): the baseline, equivalent to the
//     dynamic program of Alon et al.; splits each cycle at its boundary
//     nodes and extends paths with no pruning.
//   - DB (Degree-Based, §5.1 Figure 6, §5.2 Figure 7): the paper's
//     algorithm; partitions colorful matches by the position of their
//     highest vertex in the degree order and counts only high-starting
//     paths, pruning the search around high-degree vertices.
//
// There is one way in: CountColorfulContext and
// CountColorfulPerVertexContext both go through solve — the one place
// inputs are validated and the backend built — and solver.run, the one
// loop over the plan's blocks. A per-vertex run differs from a scalar one
// in the root block alone (solveRoot).
package core

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/decomp"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/sig"
)

// Algorithm selects the cycle solver.
type Algorithm int

const (
	// DB is the paper's degree-based algorithm (default).
	DB Algorithm = iota
	// PS is the path-splitting baseline.
	PS
	// PSEven is the modified baseline discussed in §5.1: split every cycle
	// into two equal-length walks (recording boundary mappings that fall
	// inside a walk) but without the degree-ordering constraint. The paper
	// implemented it and found it does not fix wasteful computation or load
	// imbalance; it is kept as an ablation separating DB's two ideas
	// (balanced splits vs. degree ordering).
	PSEven
)

func (a Algorithm) String() string {
	switch a {
	case PS:
		return "PS"
	case PSEven:
		return "PSEven"
	}
	return "DB"
}

// Options configures a counting run.
type Options struct {
	Algorithm Algorithm
	// Backend selects what the one execution runtime (engine.Runtime)
	// takes for workers: "sim" (default; the paper's §7 ranks simulated in
	// one process, every table entry a rank is handed counted as a message,
	// metrics-faithful for Figure 11), "parallel" (shared-memory worker
	// goroutines, nothing counted) or "dist" (worker processes; valid only
	// where dist.Enable has registered a worker topology). Counts are
	// bit-identical across backends; only Stats differ. An empty name
	// falls back to $SUBGRAPH_BACKEND, then "sim".
	Backend string
	// Workers is the execution width: simulated ranks for the sim
	// backend (≤ 0 means 4), real worker goroutines for parallel (≤ 0
	// means GOMAXPROCS) — either way bands of the partitions the vertex
	// count alone decides. Under dist the width is the worker processes,
	// and Workers is ignored.
	Workers int
	// Plan overrides the decomposition tree; nil uses the calibrated §6
	// planner (PickPlan).
	Plan *decomp.Tree
	// Engine injects a pre-built backend instead of constructing one from
	// Backend/Workers — the dist worker runtime uses it to run this same
	// solver over one rank's partitions (SPMD). Most callers leave it nil.
	Engine engine.Backend
}

// Stats reports the engine-level counters of one run: the paper's load
// metric (projection-function operations, Figure 11), communication volume,
// and table pressure. An operation of the load is a pair of entries a join
// examines — except in a root cycle's join, whose signature match is one
// lookup per entry of one walk's table: there it is an entry of that walk,
// or, where its last step appended its entries unfolded, an entry appended.
// A root cycle builds no walk table (perStart): it charges, start by start,
// what building and joining its walks' tables charged, and TableEntries,
// which counts the tables the solver compacts as they are built, leaves
// them out. So are a leaf block's tables,
// every one of which is read as it lies — its walk's, and its output, whose
// boxes move into the walk its parent starts there, or whose rows a nodeJoin
// or the per-vertex fold reads, or whose cells the root's Total sums — and
// whose operations count a box cell that holds a count as the entry it
// stands for. A tree query's run counts no table entries at all.
type Stats struct {
	Backend      string // canonical backend name ("sim", "parallel" or "dist")
	Workers      int
	MaxLoad      int64
	AvgLoad      float64
	TotalLoad    int64
	Messages     int64 // sim: every appended entry plus every row a pull reads from another partition (two units: engine.Backend.Messages); dist: entries sent to another process, a root cycle's replicated child tables included; parallel: 0
	Steals       int64 // stolen partition tasks; always 0 for sim and dist
	Supersteps   int64 // supersteps executed; identical across backends
	TableEntries int64 // distinct entries of the projection tables compacted as they were built
	Loads        []int64
}

// Trace phase names. Every span the solver records wraps exactly one
// backend superstep (Step, Pull or Run call), named for the phase that issued
// it — so spans never nest, and a trace's per-phase totals
// sum to at most the run's wall time.
const (
	PhasePathJoin      = "pathJoin"      // path builder: init/edge/node joins (§5.2 Figure 7)
	PhaseCycleJoin     = "cycleJoin"     // joining a split's P+ and P− walks (Procedure 2)
	PhaseLeafJoin      = "leafJoin"      // leaf-edge block projection onto the boundary node
	PhaseTableMerge    = "tableMerge"    // regrouping a child table at its "from" owners (§7)
	PhasePerVertexJoin = "perVertexJoin" // folding the root table into per-vertex counts
)

// CountColorful counts the colorful matches of q in g under the given
// coloring (one color in [0, q.K) per data vertex). This is the inner
// kernel of the color-coding estimator (§2).
func CountColorful(g *graph.Graph, q *query.Graph, colors []uint8, opts Options) (uint64, Stats, error) {
	return CountColorfulContext(context.Background(), g, q, colors, opts)
}

// CountColorfulContext is CountColorful bounded by ctx: the solver's
// worker loops poll ctx every cancelInterval operations, so a canceled or
// deadline-expired run stops mid-block instead of finishing the count. A
// stopped run returns ctx's error and no count.
//
// If an obs.Trace rides on ctx, the solver records one span per superstep
// it executes, named for the phase that ran it (pathJoin, cycleJoin,
// leafJoin, tableMerge, perVertexJoin) — counting itself stays
// bit-identical with or without a trace attached.
func CountColorfulContext(ctx context.Context, g *graph.Graph, q *query.Graph, colors []uint8, opts Options) (uint64, Stats, error) {
	res, err := solve(ctx, g, q, colors, opts, engine.ModeCount, 0)
	return res.count, res.stats, err
}

// result is what one solver run produces: the scalar count, or in
// ModePerVertex the vector and the anchor it is grouped by.
type result struct {
	count  uint64
	per    []uint64
	anchor int
	stats  Stats
}

// solve is the one path from either public entry to the block loop: it
// resolves the plan, validates the inputs, builds the backend, runs the
// blocks and reduces the answer across ranks. mode and anchor are the only
// inputs the entries differ in; anchor is read in ModePerVertex alone,
// where -1 picks the root block's first node.
func solve(ctx context.Context, g *graph.Graph, q *query.Graph, colors []uint8, opts Options, mode engine.JobMode, anchor int) (result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return result{}, err
	}
	plan := opts.Plan
	if plan == nil {
		var err error
		plan, err = PickPlan(q)
		if err != nil {
			return result{}, err
		}
	}
	if err := validate(g, q, colors, plan); err != nil {
		return result{}, err
	}
	var per []uint64
	if mode == engine.ModePerVertex {
		if anchor < 0 {
			anchor = plan.Root.Nodes[0]
		}
		if !slices.Contains(plan.Root.Nodes, anchor) {
			return result{}, fmt.Errorf(
				"core: anchor %d is not in the plan's root block %v; pass a plan whose root contains it", anchor, plan.Root.Nodes)
		}
		per = make([]uint64, g.N())
	}
	be := opts.Engine
	if be == nil {
		var err error
		be, err = engine.New(opts.Backend, opts.Workers, engine.Job{
			N: g.N(), Graph: g, Colors: colors, Query: q, Plan: plan,
			Algorithm: int(opts.Algorithm), Mode: mode, Anchor: anchor, Ctx: ctx,
		})
		if err != nil {
			return result{}, err
		}
	}
	s := newSolver(ctx, g, colors, q.K, be, opts.Algorithm)
	count := s.run(plan, anchor, per)
	if err := ctx.Err(); err != nil {
		return result{}, err
	}
	if s.overflow != nil {
		return result{}, s.overflow
	}
	// On a multi-process backend every rank holds only its partitions'
	// share of the answer — a partial sum, or the vector slots of its owned
	// vertices (entries are homed at the anchor mapping's owner). Reduce and
	// ReduceVec assemble the global answer (and surface a lost worker or
	// remote failure); on a single-process backend they are the identity.
	var err error
	if per != nil {
		per, err = be.ReduceVec(per)
	} else {
		count, err = be.Reduce(count)
	}
	if err != nil {
		return result{}, err
	}
	return result{count: count, per: per, anchor: anchor, stats: s.stats()}, nil
}

// stats snapshots the backend counters of a finished run. A backend that
// distributes the tables themselves (dist) reports its remote ranks'
// entry totals through the optional TableEntriesHint; locally the
// coordinator's shards are empty, so the sum stays the global total.
func (s *solver) stats() Stats {
	entries := s.entries
	if h, ok := s.be.(interface{ TableEntriesHint() int64 }); ok {
		entries += h.TableEntriesHint()
	}
	loads := s.be.Loads()
	max, avg, total := engine.LoadStats(loads)
	return Stats{
		Backend:      s.be.Name(),
		Workers:      s.be.Workers(),
		MaxLoad:      max,
		AvgLoad:      avg,
		TotalLoad:    total,
		Messages:     s.be.Messages(),
		Steals:       s.be.Steals(),
		Supersteps:   s.be.Steps(),
		TableEntries: entries,
		Loads:        loads,
	}
}

func validate(g *graph.Graph, q *query.Graph, colors []uint8, plan *decomp.Tree) error {
	if q.K < 1 {
		return fmt.Errorf("core: empty query")
	}
	if q.K > query.MaxK {
		return fmt.Errorf("core: query %s has %d nodes; max %d", q.Name, q.K, query.MaxK)
	}
	if plan.Query != q && (plan.Query.K != q.K || plan.Query.M() != q.M()) {
		return fmt.Errorf("core: plan was built for query %s, not %s", plan.Query.Name, q.Name)
	}
	if len(colors) != g.N() {
		return fmt.Errorf("core: coloring has %d entries for %d vertices", len(colors), g.N())
	}
	for v, c := range colors {
		if int(c) >= q.K {
			return fmt.Errorf("core: vertex %d has color %d ≥ k=%d", v, c, q.K)
		}
	}
	return nil
}

// solver carries the per-run state: the block result tables and the cached
// CSR groupings of child tables used by joins.
type solver struct {
	ctx      context.Context
	tr       *obs.Trace  // nil when the run carries no trace; all methods tolerate nil
	stop     atomic.Bool // latched ctx cancellation, visible to every worker
	g        *graph.Graph
	colors   []uint8
	k        int // colours: the query's node count
	be       engine.Backend
	alg      Algorithm
	tables   map[*decomp.Block]*engine.Sharded
	grouped  map[groupKey]*engine.Sharded // binary children homed at their "from" ends (groupBinary)
	walks    walkTrie                     // the walks of the block being solved (path.go)
	entries  int64
	deg      uint64 // the graph's largest degree: the most terms a data-edge step sums
	overflow error  // ErrCountOverflow, wrapped, once a step's bound or a checked sum failed
}

// newSolver assembles the per-run solver state over a ready backend, for a
// colouring with k colours.
func newSolver(ctx context.Context, g *graph.Graph, colors []uint8, k int, be engine.Backend, alg Algorithm) *solver {
	s := &solver{
		ctx:     ctx,
		tr:      obs.FromContext(ctx),
		g:       g,
		colors:  colors,
		k:       k,
		be:      be,
		alg:     alg,
		tables:  make(map[*decomp.Block]*engine.Sharded),
		grouped: make(map[groupKey]*engine.Sharded),
	}
	if g != nil {
		s.deg = uint64(g.MaxDegree())
	}
	return s
}

func (s *solver) colorOf(v uint32) sig.Sig { return sig.Of(s.colors[v]) }

// cancelInterval is how many inner-loop operations a worker performs
// between context polls: frequent enough that a canceled run frees its
// workers within milliseconds, rare enough that the poll (a counter compare
// plus, every interval, an atomic load and a channel select) is invisible
// next to the join work itself.
const cancelInterval = 1 << 12

// canceled is the worker-loop cancellation poll. Callers keep a per-loop
// counter n and call canceled(&n) once per operation; every cancelInterval
// operations it checks the latched stop flag and polls ctx, latching a
// cancellation so every other worker's next poll sees it without touching
// the context again.
func (s *solver) canceled(n *int) bool { return s.canceledAfter(n, 1) }

// canceledAfter is canceled for a loop that keeps its books in bulk: ops
// operations — a whole run of entries against one neighbour, say — count
// towards the next poll in one addition, and the poll falls at the first
// call that takes the counter to cancelInterval or past it.
func (s *solver) canceledAfter(n *int, ops int) bool {
	if *n += ops; *n < cancelInterval {
		return false
	}
	*n = 0
	return s.aborted()
}

// aborted polls the run's context immediately (no counter); used between
// blocks, splits, and path-building steps.
func (s *solver) aborted() bool {
	if s.stop.Load() {
		return true
	}
	select {
	case <-s.ctx.Done():
		s.stop.Store(true)
		return true
	default:
		return false
	}
}

// track finishes a freshly built table: every partition compacts its own
// shard (the sweep, or sort and fold, a superstep's adds have been waiting
// for), in parallel and inside the superstep's span, the table's size goes
// into the stats, and its bound becomes its largest count. A canceled run
// skips the shards not yet started and stops the one it is in at its next
// pass over the entries — a hub's shard of a million entries is tens of
// milliseconds of compaction — leaving it unread; the caller discards the
// table.
func (s *solver) track(t *engine.Sharded) *engine.Sharded {
	var entries atomic.Int64
	var most atomic.Uint64
	s.be.Run(func(w int) {
		if !s.aborted() {
			sh := t.Shard(w)
			n, _ := sh.Build(s.aborted)
			entries.Add(int64(n))
			raise(&most, sh.Max())
		}
	})
	s.entries += entries.Load()
	t.Max = most.Load()
	return t
}

// finish is track for a walk's table, which a start-free walk's reader
// wants pending (buildPath): left as its superstep's adds lie — chunks or
// open boxes, not compacted here, so not counted in the stats' table
// entries, which are entries of the tables track compacts. Its entries are
// counted once, in the load of the step that reads them.
func (s *solver) finish(t *engine.Sharded, pend bool) *engine.Sharded {
	if pend {
		return t
	}
	return s.track(t)
}

// run traverses the decomposition tree bottom-up (§4.2), solving each block
// from its children's projection tables, and returns the count produced by
// the root block — or, given a per vector, folds the root's anchored table
// into it. It is the one block loop: scalar and per-vertex runs poll for
// cancellation and drop dead tables at the same points.
func (s *solver) run(plan *decomp.Tree, anchor int, per []uint64) uint64 {
	var answer uint64
	for _, b := range plan.Blocks {
		if s.aborted() {
			s.drop(plan.Blocks) // whatever the blocks solved so far left behind
			return 0
		}
		switch {
		case b == plan.Root:
			answer = s.solveRoot(b, anchor, per)
		case b.Kind == decomp.LeafEdge:
			s.tables[b] = s.solveLeaf(b)
		case b.Kind == decomp.CycleBlock:
			s.tables[b] = s.solveCycle(b)
		}
		s.drop(b.Children)
	}
	return answer
}

// solveRoot solves the root block — a cycle or a singleton, never a leaf
// edge: contraction always leaves a singleton after the last leaf — the
// one block whose output depends on what the run computes: the total
// colorful-match count when per is nil, otherwise the per-vertex counts —
// the root solved as if anchor were its boundary node, and the resulting
// unary table folded into per.
func (s *solver) solveRoot(b *decomp.Block, anchor int, per []uint64) uint64 {
	var unary *engine.Sharded
	switch {
	case b.Kind == decomp.CycleBlock && per == nil:
		return s.solveRootCycle(b)
	case b.Kind == decomp.CycleBlock:
		// Identical joins, but mappings of the anchor are carried to the
		// output (§5.2's one-boundary case).
		unary = s.solveCycle(&decomp.Block{
			Kind:     b.Kind,
			Nodes:    b.Nodes,
			Boundary: []int{anchor},
			NodeAnn:  b.NodeAnn,
			EdgeAnn:  b.EdgeAnn,
			Children: b.Children,
		})
		defer unary.Release() // a singleton's table is its child's, dropped with it
	case len(b.Children) == 0:
		// A 1-node query: every vertex is one colorful match. Only owned
		// vertices, so multi-process ranks contribute disjoint shares to
		// Reduce and fill disjoint slots for ReduceVec.
		lo, hi := s.be.Owned()
		for v := lo; per != nil && v < hi; v++ {
			per[v] = 1
		}
		return uint64(hi - lo)
	default:
		unary = s.tables[b.Children[0]]
	}
	if per == nil {
		return s.total(unary) // a box's cells are summed, not swept
	}
	defer s.tr.Start(PhasePerVertexJoin)()
	s.be.Run(func(w int) {
		rows := unary.Shard(w).Rows(s.aborted)
		for run := rows.Next(); len(run) > 0; run = rows.Next() {
			for i := range run {
				per[run[i].U()] += run[i].C
			}
		}
		rows.Close()
	})
	return 0
}

// drop releases the tables and cached groupings of blocks: a solved
// block's children, which are dead once their parent is solved, or every
// block's when the run is canceled.
func (s *solver) drop(blocks []*decomp.Block) {
	for _, c := range blocks {
		if t := s.tables[c]; t != nil {
			t.Release()
		}
		delete(s.tables, c)
		s.dropGroups(c)
	}
}
