package core

import (
	"context"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/query"
)

// Per-vertex counting: instead of the single colorful-match total, report
// for every data vertex v the number of colorful matches that map a chosen
// query node (the anchor) to v. This is the per-vertex motif count used by
// the biological applications the paper builds on (Alon et al., FASCIA).
// It falls out of the same machinery: the root block is solved as if the
// anchor were a boundary node, yielding a unary projection table instead of
// a scalar.

// CountColorfulPerVertex counts colorful matches of q in g grouped by the
// data vertex that the anchor query node maps to. anchor must be a node of
// the plan's root block (the natural grouping nodes for the chosen plan);
// pass anchor = -1 to let the solver pick one. It returns the per-vertex
// counts, the anchor actually used, and the engine stats.
func CountColorfulPerVertex(g *graph.Graph, q *query.Graph, colors []uint8, anchor int, opts Options) ([]uint64, int, Stats, error) {
	return CountColorfulPerVertexContext(context.Background(), g, q, colors, anchor, opts)
}

// CountColorfulPerVertexContext is CountColorfulPerVertex bounded by ctx,
// with the same cancellation and tracing semantics as
// CountColorfulContext: the solver polls ctx between (and inside) join
// steps, and records a span per superstep if an obs.Trace rides on ctx.
func CountColorfulPerVertexContext(ctx context.Context, g *graph.Graph, q *query.Graph, colors []uint8, anchor int, opts Options) ([]uint64, int, Stats, error) {
	res, err := solve(ctx, g, q, colors, opts, engine.ModePerVertex, anchor)
	return res.per, res.anchor, res.stats, err
}
