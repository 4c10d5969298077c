package core_test

import (
	"errors"
	"math/bits"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/table"
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

// TestRootCountThatWrapsIsRefused: the hub of TestStarOnAHubIsRefused with
// cycles 0–a–b–c–0 through it, coloured 1, 2 and 3, its leaves round-robin
// over colours 4–8, and a 4-cycle query with a 5-leaf star at one node,
// planned with the cycle at the root. A match maps the star's centre to the
// hub, the cycle to one of the r cycles in either direction and the leaves
// to one leaf of each colour 4–8: 2r·5!·Π n_c matches, every one summed by
// the root cycle's per-start pass at the hub. The star's own table, 5!·Π
// n_c at the hub, fits in 64 bits either way; with 100 cycles and 4000
// leaves the count is about 7.9·10¹⁸, which every backend counts exactly,
// and with 5000 leaves about 2.4·10¹⁹: the pass's checked sum wraps, and
// every backend refuses the count with ErrCountOverflow, leaving every slab
// it took back in the pool.
func TestRootCountThatWrapsIsRefused(t *testing.T) {
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	for leaf := 4; leaf < 9; leaf++ {
		edges = append(edges, [2]int{0, leaf})
	}
	q := query.FromEdges("starred4", 9, edges)
	plan := core.RootCyclePlans(t, q, 1)[0]
	graphOf := func(leaves, cycles int) (*graph.Graph, []uint8) {
		n := 1 + leaves + 3*cycles
		colors := make([]uint8, n)
		var es [][2]uint32
		for v := 1; v <= leaves; v++ {
			es = append(es, [2]uint32{0, uint32(v)})
			colors[v] = uint8(4 + v%5)
		}
		for i := range cycles {
			a := uint32(1 + leaves + 3*i)
			es = append(es, [2]uint32{0, a}, [2]uint32{a, a + 1}, [2]uint32{a + 1, a + 2}, [2]uint32{a + 2, 0})
			colors[a], colors[a+1], colors[a+2] = 1, 2, 3
		}
		return graph.FromEdges("hub4", n, es), colors
	}
	matches := func(leaves, cycles int) (n uint64, ok bool) {
		n = 2 * uint64(cycles) * 120
		for c := range 5 {
			var hi uint64
			if hi, n = bits.Mul64(n, uint64((leaves-c)/5+1)-boolInt(c == 0)); hi != 0 {
				return 0, false
			}
		}
		return n, true
	}
	if g, colors := graphOf(10, 2); exact.ColorfulMatches(g, q, colors) != must(matches(10, 2)) {
		t.Fatalf("the exact enumerator counts %d on 10 leaves and 2 cycles, want %d", exact.ColorfulMatches(g, q, colors), must(matches(10, 2)))
	}
	backends := []backend{local("sim", 4), local("parallel", 2), loopback2(t)}
	for _, leaves := range []int{4000, 5000} {
		want, fits := matches(leaves, 100)
		g, colors := graphOf(leaves, 100)
		for _, be := range backends {
			held := table.SlabsOut()
			opts := be.opts(engine.Job{N: g.N(), Graph: g, Colors: colors, Query: q, Plan: plan, Mode: engine.ModeCount})
			opts.Plan = plan
			got, _, err := core.CountColorful(g, q, colors, opts)
			switch {
			case !fits && !errors.Is(err, core.ErrCountOverflow):
				t.Errorf("%d leaves on %s: counted %d, err %v; want ErrCountOverflow", leaves, be.name, got, err)
			case !fits && !strings.Contains(err.Error(), "per-start"):
				t.Errorf("%d leaves on %s: %v names no per-start pass", leaves, be.name, err)
			case fits && (err != nil || got != want):
				t.Errorf("%d leaves on %s: counted %d, err %v; want %d", leaves, be.name, got, err, want)
			}
			// A loopback rank unwinds on its own goroutines after the
			// coordinator returns.
			for deadline := time.Now().Add(10 * time.Second); table.SlabsOut() != held && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			}
			if left := table.SlabsOut() - held; left != 0 {
				t.Errorf("%d leaves on %s: the run kept %d slabs", leaves, be.name, left)
			}
		}
	}
}

func boolInt(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func must(n uint64, ok bool) uint64 {
	if !ok {
		panic("the count does not fit")
	}
	return n
}
