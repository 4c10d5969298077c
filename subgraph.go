// Package subgraph is the public API of this reproduction of
// "Subgraph Counting: Color Coding Beyond Trees" (Chakaravarthy et al.,
// IPDPS 2016): approximate subgraph counting for treewidth-2 query graphs
// via color coding, with the paper's degree-based (DB) cycle solver and the
// path-splitting (PS) baseline, over pluggable execution backends — the
// paper's simulated distributed engine ("sim", metrics-faithful), a real
// shared-memory parallel runtime ("parallel") or worker processes
// ("dist"); counts are bit-identical across backends.
//
// Typical use:
//
//	g, _ := subgraph.LoadGraph("data.edges")       // or a generator
//	q, _ := subgraph.QueryByName("brain1")          // Figure 8 catalog
//	est, _ := subgraph.Estimate(g, q, subgraph.EstimateOptions{Trials: 5})
//	fmt.Println(est.Matches, est.Subgraphs)
//
// Exact colorful counting under one fixed coloring — the inner kernel — is
// exposed as CountColorful; decomposition plans (§4.1, §6) as Plan /
// EnumeratePlans.
package subgraph

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/engine"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/query"
)

// Re-exported core types. Graph is the data graph (CSR, immutable), Query
// the small template graph, PlanTree a decomposition tree.
type (
	Graph      = graph.Graph
	GraphStats = graph.Stats
	Query      = query.Graph
	PlanTree   = decomp.Tree
	Algorithm  = core.Algorithm
	CountStats = core.Stats
	Estimation = coloring.Estimate
)

// Algorithms: DB is the paper's degree-based solver, PS the baseline, and
// PSEven the §5.1 even-split baseline variant (an ablation isolating DB's
// balanced splits from its degree-ordering constraint).
const (
	DB     = core.DB
	PS     = core.PS
	PSEven = core.PSEven
)

// LoadGraph reads a SNAP-style whitespace edge list from disk.
func LoadGraph(path string) (*Graph, error) { return graph.LoadEdgeList(path) }

// ReadGraph reads a SNAP-style whitespace edge list from r.
func ReadGraph(name string, r io.Reader) (*Graph, error) { return graph.ReadEdgeList(name, r) }

// NewGraph builds a data graph from an explicit undirected edge list
// (self-loops dropped, duplicates merged).
func NewGraph(name string, n int, edges [][2]uint32) *Graph {
	return graph.FromEdges(name, n, edges)
}

// GeneratePowerLaw samples a Chung-Lu graph with truncated power-law
// expected degrees (§9.2 model); alpha ∈ (1,2), heavier tail for smaller
// alpha.
func GeneratePowerLaw(name string, n int, alpha float64, seed int64) *Graph {
	return gen.PowerLawGraph(name, n, alpha, rand.New(rand.NewSource(seed)))
}

// GenerateRMAT samples an R-MAT graph with Graph500 parameters and
// 2^scale vertices (the paper's weak-scaling workload, §8.4).
func GenerateRMAT(name string, scale, edgeFactor int, seed int64) *Graph {
	return gen.RMAT(name, scale, edgeFactor, gen.Graph500, rand.New(rand.NewSource(seed)))
}

// Standin builds the named Table 1 stand-in graph at 1/scale of the
// original size; see DESIGN.md for the calibration. Known names:
// brightkite, condMat, astroph, enron, hepph, slashdot, epinions, orkut,
// roadNetCA, brain.
func Standin(name string, scale int, seed int64) (*Graph, bool) {
	return gen.StandinByName(name, scale, seed)
}

// QueryByName returns a named query: the Figure 8 catalog (dros, ecoli1,
// ecoli2, brain1, brain2, brain3, glet1, glet2, wiki, youtube), the
// Figure 2 "satellite" example, or parametric "cycle<L>", "path<L>",
// "star<L>", "bintree<L>".
func QueryByName(name string) (*Query, error) { return query.ByName(name) }

// Queries returns the ten Figure 8 benchmark queries.
func Queries() []*Query { return query.Catalog() }

// NewQuery builds a query graph from an edge list; it must be connected
// with treewidth ≤ 2 to be countable.
func NewQuery(name string, k int, edges [][2]int) *Query {
	return query.FromEdges(name, k, edges)
}

// ReadQuery parses a query graph from a whitespace edge list ("a b" per
// line, 0-based node ids, '#' comments).
func ReadQuery(name string, r io.Reader) (*Query, error) {
	return query.ReadEdgeList(name, r)
}

// Plan computes the decomposition tree the solver will use: all trees are
// enumerated (§4.1) and ranked by measured cost on a tiny fixed calibration
// graph — the §6 enumerate-and-rank design, independent of the data graph.
func Plan(q *Query) (*PlanTree, error) { return core.PickPlan(q) }

// EnumeratePlans returns every distinct decomposition tree of q (used by
// the Figure 14 heuristic-vs-optimal study).
func EnumeratePlans(q *Query) ([]*PlanTree, error) { return decomp.Enumerate(q) }

// CanonicalBackend resolves an execution backend name to its canonical
// form ("sim", "parallel" or "dist"): an empty name falls back to
// $SUBGRAPH_BACKEND, then "sim"; unknown names are errors. Servers should
// validate their configured default with it at startup, so a typo fails
// fast instead of turning every request into a 400.
func CanonicalBackend(name string) (string, error) { return engine.Canonical(name) }

// CountOptions configures one colorful-counting run.
type CountOptions = core.Options

// CountColorful counts the colorful matches of q in g under a fixed
// coloring (one color in [0,q.K) per vertex) — the inner kernel of the
// estimator.
func CountColorful(g *Graph, q *Query, colors []uint8, opts CountOptions) (uint64, CountStats, error) {
	return core.CountColorful(g, q, colors, opts)
}

// CountColorfulContext is CountColorful bounded by ctx: the solver polls
// ctx inside its worker loops, so a canceled or deadline-expired count
// stops mid-run (returning ctx's error) instead of finishing.
func CountColorfulContext(ctx context.Context, g *Graph, q *Query, colors []uint8, opts CountOptions) (uint64, CountStats, error) {
	return core.CountColorfulContext(ctx, g, q, colors, opts)
}

// RandomColoring draws a uniform coloring for use with CountColorful.
func RandomColoring(g *Graph, q *Query, seed int64) []uint8 {
	return coloring.Random(g.N(), q.K, rand.New(rand.NewSource(seed)))
}

// Precision declares a target accuracy for an estimate: stop adding
// trials once the two-sided Confidence-level confidence interval of the
// mean colorful count has half-width at most RelErr of the mean. The
// zero value means "no target".
type Precision = coloring.Precision

// Spec declares the answer quality an estimation should reach, instead of
// an imperative trial count: the estimator keeps running independent
// colorings until the observed variance says the Precision target is met
// (the per-coloring counts are i.i.d., so the needed trial count can be
// decided while running), bounded by MinTrials/MaxTrials and optionally
// by a wall-clock Budget.
type Spec struct {
	// Precision is the declared target; a zero RelErr disables the
	// adaptive path and EstimateOptions.Trials applies as before.
	Precision Precision
	// MinTrials is the earliest trial the stopping rule may fire at
	// (≤ 0 means 3; clamped to ≥ 2).
	MinTrials int
	// MaxTrials caps the adaptive run (≤ 0 means 1024).
	MaxTrials int
	// Budget, when positive, bounds the adaptive run's wall-clock time:
	// once exceeded the estimate is snapshotted at the trials done so far
	// (at least one). Budget stops are a time-based safety valve — unlike
	// rule stops they are not reproducible across machines.
	Budget time.Duration
}

// rule is the run's stopping rule: the Spec's bounds when it declares a
// target, otherwise "exactly Trials" — a rule with no target fires at its
// cap and nowhere earlier.
func (o EstimateOptions) rule() coloring.Adaptive {
	ad := coloring.Adaptive{Precision: o.Spec.Precision, MinTrials: o.Spec.MinTrials, MaxTrials: o.Spec.MaxTrials}
	if !ad.Enabled() {
		ad.MaxTrials = o.Trials
	}
	return ad
}

// EstimateOptions configures the multi-trial estimator.
type EstimateOptions struct {
	Algorithm Algorithm
	// Backend selects the execution runtime for the inner solver: "sim"
	// (default; the paper's simulated distributed engine), "parallel"
	// (real shared-memory workers merging projection tables directly) or
	// "dist" (worker processes; valid only in a process that has connected
	// a worker topology, as sgserve -dist-workers does). Estimates are
	// bit-identical across backends and worker counts; only the engine
	// stats differ. An empty name falls back to $SUBGRAPH_BACKEND, then
	// "sim".
	Backend string
	// Workers is the execution width: simulated ranks under "sim" (≤ 0
	// means 4), real worker goroutines under "parallel" (≤ 0 means
	// GOMAXPROCS), total partitions spread over the worker processes under
	// "dist" (≤ 0 means 4 per process).
	Workers int
	// Trials is the fixed number of independent colorings (≤ 0 means 3).
	// It is the compatibility alias for a fixed-trial Spec: when
	// Spec.Precision declares a target, Trials is ignored and the run is
	// adaptive; otherwise results are bit-identical to the pre-Spec API.
	Trials int
	Seed   int64
	Plan   *PlanTree
	// Parallel runs up to this many trials concurrently; results are
	// bit-identical to the serial run. ≤ 1 means serial.
	Parallel int
	// Spec, when its Precision is enabled, switches the run from "run
	// Trials colorings" to "reach this precision": trials are added until
	// the observed confidence interval meets the target (or Spec's
	// bounds fire). An adaptive run that stops at T trials returns an
	// estimate bit-identical to a fixed run with Trials: T at the same
	// seed.
	Spec Spec
}

// Estimate approximates the number of matches (and distinct subgraphs) of
// q in g by color coding: independent colorings, each counted exactly and
// scaled by k^k/k! (§2) — Trials of them, or as many as Spec's target
// needs. Either way it is a Session run to its stopping rule.
func Estimate(g *Graph, q *Query, opts EstimateOptions) (Estimation, error) {
	return EstimateContext(context.Background(), g, q, opts)
}

// EstimateContext is Estimate bounded by ctx. Cancellation reaches the
// inner counting loops: a canceled or deadline-expired estimation stops
// mid-trial within milliseconds and returns ctx's error, instead of
// running every remaining trial to completion. Results of uncanceled runs
// are bit-identical to Estimate.
func EstimateContext(ctx context.Context, g *Graph, q *Query, opts EstimateOptions) (Estimation, error) {
	sess, err := NewSession(g, q, opts)
	if err != nil {
		return Estimation{}, err
	}
	return sess.run(ctx)
}

// Session is an incremental estimation handle: Next runs one more
// deterministic coloring trial from the seeded trial stream, Estimate
// snapshots the running result (mean, CV, confidence interval via
// Estimation.RelCI) at any point. A Session advanced T times yields an
// Estimation bit-identical to Estimate with Trials: T and the same seed,
// on either backend — incremental refinement never changes the answer a
// batch run would give. Sessions are not safe for concurrent use.
type Session struct {
	inner *coloring.Session
	opts  EstimateOptions
}

// NewSession starts an incremental estimation of q in g. Trials is
// ignored (the caller decides when to stop — or RunToSpec applies
// opts.Spec); all other options mean what they mean for Estimate.
func NewSession(g *Graph, q *Query, opts EstimateOptions) (*Session, error) {
	inner, err := coloring.NewSession(g, q, coloring.Options{
		Seed: opts.Seed,
		Core: core.Options{
			Algorithm: opts.Algorithm,
			Backend:   opts.Backend,
			Workers:   opts.Workers,
			Plan:      opts.Plan,
		},
	})
	if err != nil {
		return nil, err
	}
	return &Session{inner: inner, opts: opts}, nil
}

// Next runs one more coloring trial and returns its colorful count.
func (s *Session) Next(ctx context.Context) (uint64, error) { return s.inner.Next(ctx) }

// Trials reports how many trials the session has accumulated.
func (s *Session) Trials() int { return s.inner.Trials() }

// Estimate snapshots the estimate over every trial run so far.
func (s *Session) Estimate() Estimation { return s.inner.Estimate() }

// Met reports whether the accumulated trials genuinely satisfy the given
// precision target: the observed confidence interval at p.Confidence has
// half-width at most p.RelErr of the mean. Unlike the adaptive stopping
// rule — which also fires at a MaxTrials cap so a bounded run always
// resolves — Met never reports an unmet target as met.
func (s *Session) Met(p Precision) bool {
	est := s.inner.Estimate()
	return est.Trials >= 2 && est.RelCI(p.Confidence) <= p.RelErr
}

// RunToSpec advances the session until the options' Spec is met (or its
// bounds fire) and returns the estimate at the stopping trial. Trials
// already accumulated count toward the target, so interleaving Next and
// RunToSpec refines rather than restarts. A session whose Spec declares
// no precision target errors out rather than silently running to the
// default trial cap.
func (s *Session) RunToSpec(ctx context.Context) (Estimation, error) {
	if !s.opts.Spec.Precision.Enabled() {
		return Estimation{}, fmt.Errorf("subgraph: RunToSpec on a session with no precision target (Spec.Precision.RelErr is 0)")
	}
	return s.run(ctx)
}

// run advances the session to its options' stopping rule and snapshots the
// estimate there.
func (s *Session) run(ctx context.Context) (Estimation, error) {
	stop, err := s.inner.RunUntil(ctx, s.opts.rule(), s.opts.Parallel, s.opts.Spec.Budget)
	if err != nil {
		return Estimation{}, err
	}
	return s.inner.EstimateAt(stop), nil
}

// CountColorfulPerVertex counts colorful matches grouped by the data
// vertex that the anchor query node maps to (per-vertex motif counts, as
// in FASCIA). anchor must belong to the plan's root block; pass -1 to let
// the solver choose. Returns the counts, the anchor used, and engine stats.
func CountColorfulPerVertex(g *Graph, q *Query, colors []uint8, anchor int, opts CountOptions) ([]uint64, int, CountStats, error) {
	return core.CountColorfulPerVertex(g, q, colors, anchor, opts)
}

// ExactCount counts matches by brute force — exponential in q; only for
// validation on small graphs.
func ExactCount(g *Graph, q *Query) uint64 { return exact.Matches(g, q) }

// ScaleFactor returns k^k/k!, the color-coding normalization constant.
func ScaleFactor(k int) float64 { return coloring.ScaleFactor(k) }
