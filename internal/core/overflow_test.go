package core_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/query"
)

// hub is a star graph: vertex 0 joined to each of leaves vertices, coloured
// round-robin over k colours, the hub in colour 0.
func hub(leaves, k int) (*graph.Graph, []uint8) {
	edges := make([][2]uint32, leaves)
	colors := make([]uint8, leaves+1)
	for i := range edges {
		edges[i] = [2]uint32{0, uint32(i + 1)}
		colors[i+1] = uint8((i + 1) % k)
	}
	return graph.FromEdges("hub", leaves+1, edges), colors
}

// TestStarOnAHubIsRefused: a colourful 6-node star on a hub maps its
// leaves, in any of 5! orders, to one leaf of each colour but the hub's, so
// there are 5!·Π n_c of them, n_c the leaves of colour c. The exact
// enumerator agrees at 8 leaves. At 9420 leaves that is about 1.1·10¹⁸,
// within 2⁶⁴, which every backend counts; at 30000 it is about 3.8·10²⁰,
// and every backend refuses the count with ErrCountOverflow instead of
// returning it wrapped.
func TestStarOnAHubIsRefused(t *testing.T) {
	q := query.Star(6)
	plan, err := core.PickPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	stars := func(leaves int) uint64 {
		n := uint64(120)
		for c := 1; c < q.K; c++ {
			n *= uint64((leaves-c)/q.K + 1) // leaves c, c+k, … ≤ leaves
		}
		return n
	}
	if g, colors := hub(8, q.K); exact.ColorfulMatches(g, q, colors) != stars(8) {
		t.Fatalf("the exact enumerator counts %d stars on 8 leaves, want %d", exact.ColorfulMatches(g, q, colors), stars(8))
	}
	backends := []backend{local("sim", 4), local("parallel", 2), loopback2(t)}
	for _, c := range []struct {
		leaves int
		refuse bool
	}{{9420, false}, {30000, true}} {
		g, colors := hub(c.leaves, q.K)
		for _, be := range backends {
			opts := be.opts(engine.Job{N: g.N(), Graph: g, Colors: colors, Query: q, Plan: plan, Mode: engine.ModeCount})
			opts.Plan = plan
			got, _, err := core.CountColorful(g, q, colors, opts)
			switch {
			case c.refuse && !errors.Is(err, core.ErrCountOverflow):
				t.Errorf("%d leaves on %s: counted %d, err %v; want ErrCountOverflow", c.leaves, be.name, got, err)
			case c.refuse && !strings.Contains(err.Error(), "Join"):
				t.Errorf("%d leaves on %s: %v names no join", c.leaves, be.name, err)
			case !c.refuse && (err != nil || got != stars(c.leaves)):
				t.Errorf("%d leaves on %s: counted %d, err %v; want %d", c.leaves, be.name, got, err, stars(c.leaves))
			}
		}
	}
}
