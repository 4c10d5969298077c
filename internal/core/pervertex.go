package core

import (
	"context"
	"fmt"

	"repro/internal/decomp"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/table"
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
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, Stats{}, err
	}
	plan := opts.Plan
	if plan == nil {
		var err error
		plan, err = PickPlan(q)
		if err != nil {
			return nil, 0, Stats{}, err
		}
	}
	if err := validate(g, q, colors, plan); err != nil {
		return nil, 0, Stats{}, err
	}
	root := plan.Root
	if anchor < 0 {
		anchor = root.Nodes[0]
	}
	if !contains(root.Nodes, anchor) {
		return nil, 0, Stats{}, fmt.Errorf(
			"core: anchor %d is not in the plan's root block %v; pass a plan whose root contains it", anchor, root.Nodes)
	}
	be := opts.Engine
	if be == nil {
		var err error
		be, err = engine.New(opts.Backend, opts.Workers, engine.Job{
			N: g.N(), Graph: g, Colors: colors, Query: q, Plan: plan,
			Algorithm: int(opts.Algorithm), Mode: engine.ModePerVertex, Anchor: anchor, Ctx: ctx,
		})
		if err != nil {
			return nil, 0, Stats{}, err
		}
	}
	s := newSolver(ctx, g, colors, be, opts.Algorithm)
	per := s.runPerVertex(plan, anchor)
	if err := ctx.Err(); err != nil {
		return nil, 0, Stats{}, err
	}
	// Each rank's slots are nonzero only for its owned vertices (entries
	// are homed at the anchor mapping's owner); ReduceVec assembles the
	// global vector on a multi-process backend, and is the identity
	// locally.
	per, err := be.ReduceVec(per)
	if err != nil {
		return nil, 0, Stats{}, err
	}
	return per, anchor, s.stats(), nil
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// runPerVertex is solver.run with the root block solved into a unary table
// keyed by the anchor's mapping.
func (s *solver) runPerVertex(plan *decomp.Tree, anchor int) []uint64 {
	per := make([]uint64, s.g.N())
	for _, b := range plan.Blocks {
		if b != plan.Root {
			switch b.Kind {
			case decomp.LeafEdge:
				s.tables[b] = s.solveLeaf(b)
			case decomp.CycleBlock:
				s.tables[b] = s.solveCycle(b)
			}
			s.drop(b.Children)
			continue
		}
		var unary *engine.Sharded
		switch b.Kind {
		case decomp.SingletonRoot:
			if len(b.Children) == 0 {
				// 1-node query: one match per vertex — owned vertices only,
				// so multi-process ranks fill disjoint slots for ReduceVec.
				lo, hi := s.be.Owned()
				for v := lo; v < hi; v++ {
					per[v] = 1
				}
				return per
			}
			unary = s.tables[b.Children[0]]
		case decomp.CycleBlock:
			// Solve the root cycle as if the anchor were its boundary:
			// identical joins, but mappings of the anchor are carried to
			// the output (§5.2's one-boundary case).
			anchored := &decomp.Block{
				Kind:     b.Kind,
				Nodes:    b.Nodes,
				Boundary: []int{anchor},
				NodeAnn:  b.NodeAnn,
				EdgeAnn:  b.EdgeAnn,
				Children: b.Children,
			}
			unary = s.solveCycle(anchored)
		case decomp.LeafEdge:
			// A root is never a leaf edge (contraction always leaves a
			// singleton after the last leaf).
			panic("core: leaf-edge root block")
		}
		end := s.tr.Start(PhasePerVertexJoin)
		unary.Iter(func(k table.Key, c uint64) bool {
			per[k.U] += c
			return true
		})
		end()
		if b.Kind == decomp.CycleBlock {
			unary.Release() // the anchored root table; a singleton's is its child's
		}
		s.drop(b.Children)
	}
	return per
}
