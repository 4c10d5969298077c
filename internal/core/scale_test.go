package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/query"
)

// Invariants at the benchmark's scale, where no oracle reaches: bintree8 on
// the enron stand-in at scale 2, tree8-90k's instance, whose every table is
// a leaf block's matrix, read where it lies.

// tree8 returns tree8-90k's graph and query and a colouring drawn from seed.
func tree8(t *testing.T, seed int64) (*graph.Graph, *query.Graph, []uint8) {
	g, ok := gen.StandinByName("enron", 2, 1)
	if !ok {
		t.Fatal("no enron stand-in")
	}
	q := query.MustByName("bintree8")
	return g, q, colouring(g.N(), q.K, rand.New(rand.NewSource(seed)))
}

func colouring(n, k int, rng *rand.Rand) []uint8 {
	colors := make([]uint8, n)
	for v := range colors {
		colors[v] = uint8(rng.Intn(k))
	}
	return colors
}

// counts runs q on g under be, scalar and, given an anchor ≥ 0, per vertex.
func counts(t *testing.T, be backend, g *graph.Graph, q *query.Graph, colors []uint8, plan *decomp.Tree, anchor int) (uint64, []uint64) {
	t.Helper()
	job := engine.Job{N: g.N(), Graph: g, Colors: colors, Query: q, Plan: plan, Mode: engine.ModeCount}
	opts := be.opts(job)
	opts.Plan = plan
	got, _, err := core.CountColorful(g, q, colors, opts)
	if err != nil {
		t.Fatalf("%s: %v", be.name, err)
	}
	if anchor < 0 {
		return got, nil
	}
	job.Mode, job.Anchor = engine.ModePerVertex, anchor
	opts = be.opts(job)
	opts.Plan = plan
	per, _, _, err := core.CountColorfulPerVertex(g, q, colors, anchor, opts)
	if err != nil {
		t.Fatalf("%s, per vertex: %v", be.name, err)
	}
	return got, per
}

// Σ_v of the per-vertex counts anchored at a root node is the scalar count,
// on sim and parallel at two workers and on a two-rank loopback cluster;
// -short and -race take one anchor on sim. Two instances:
//   - tree8-90k's, under the default plan and two other plans rooted at
//     other singletons: the one count sums the root table's box cells
//     (Total), the other reads its rows (table.Rows) into the vector;
//   - brain3 on the enron stand-in at scale 256, anchored at every node of
//     its root cycle: the scalar run ends in the per-start pass, which
//     joins each start's rows, and each anchored run in a one-boundary
//     join, which merges the two sorted walks (boundaryJoin).
func TestAnchorsSumToTheCount(t *testing.T) {
	short := testing.Short() || core.RaceEnabled
	legs := []backend{local(engine.SimName, 2), local(engine.ParallelName, 2), loopback2(t)}
	if short {
		legs = legs[:1]
	}
	g, q, colors := tree8(t, 2)
	plan, err := core.PickPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	plans, roots := []*decomp.Tree{plan}, map[int]bool{plan.Root.Nodes[0]: true}
	trees, err := decomp.Enumerate(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trees {
		if r := tr.Root.Nodes[0]; len(plans) < 3 && tr.Root.Kind == decomp.SingletonRoot && !roots[r] {
			plans, roots[r] = append(plans, tr), true
		}
	}
	if short {
		plans = plans[:1]
	} else if len(plans) != 3 {
		t.Fatalf("bintree8 has %d plans rooted at distinct singletons, want 3", len(plans))
	}
	var want uint64
	for _, plan := range plans {
		want = sumsToTheCount(t, legs, g, q, colors, plan, plan.Root.Nodes[:1], want)
	}

	g, ok := gen.StandinByName("enron", 256, 1)
	if !ok {
		t.Fatal("no enron stand-in")
	}
	q = query.MustByName("brain3")
	colors = colouring(g.N(), q.K, rand.New(rand.NewSource(2)))
	if plan, err = core.PickPlan(q); err != nil {
		t.Fatal(err)
	}
	if plan.Root.Kind != decomp.CycleBlock {
		t.Fatalf("brain3's plan is rooted at a %v block, want a cycle", plan.Root.Kind)
	}
	anchors := plan.Root.Nodes
	if short {
		anchors = anchors[:1]
	}
	sumsToTheCount(t, legs, g, q, colors, plan, anchors, 0)
}

// sumsToTheCount checks, on each leg at each anchor, that the per-vertex
// counts sum to the scalar count, and that the scalar count is want — or,
// for want 0, the first one counted, which must not be 0. It returns the
// count.
func sumsToTheCount(t *testing.T, legs []backend, g *graph.Graph, q *query.Graph, colors []uint8, plan *decomp.Tree, anchors []int, want uint64) uint64 {
	t.Helper()
	for _, anchor := range anchors {
		for _, be := range legs {
			got, per := counts(t, be, g, q, colors, plan, anchor)
			var sum uint64
			for _, c := range per {
				sum += c
			}
			if want == 0 {
				want = got
			}
			if got != want || sum != got || got == 0 {
				t.Fatalf("%s, %s anchored at %d: counted %d, %d per vertex; %d first", be.name, q.Name, anchor, got, sum, want)
			}
		}
	}
	return want
}

// For a connected query, count(g ⊔ g′) = count(g) + count(g′): a second
// generated graph beside the benchmark's enron stand-in at scale 2, at ids
// above it, changes how full every shard is and which partition a vertex
// lands in, never a component's answer. Two queries on it:
//   - bintree8 (tree8-90k), on sim at two ranks and on a runtime of one
//     partition, whose 24 000-row shards are over boxCap: its matrices are
//     read as boxes opened at compaction and as sorted shards;
//   - glet2 (cycle5-90k), a root cycle, on sim and parallel at two workers
//     and on a two-rank loopback cluster, counted start by start: a
//     component's starts reach no other component's vertices.
func TestDisjointUnionAddsCounts(t *testing.T) {
	g, ok := gen.StandinByName("enron", 2, 1)
	if !ok {
		t.Fatal("no enron stand-in")
	}
	rng := rand.New(rand.NewSource(3))
	h := gen.PowerLawGraph("pl", 6000, 1.5, rng)
	var edges [][2]uint32
	for i, part := range []*graph.Graph{g, h} {
		at := uint32(i * g.N())
		for u := uint32(0); int(u) < part.N(); u++ {
			for _, v := range part.Neighbors(u) {
				if u < v {
					edges = append(edges, [2]uint32{at + u, at + v})
				}
			}
		}
	}
	union := graph.FromEdges("union", g.N()+h.N(), edges)
	onePartition := backend{"sim, one partition over boxCap", func(job engine.Job) core.Options {
		return core.Options{Engine: engine.NewRuntime(engine.SimName, 1, 1, job.N)}
	}}
	for _, c := range []struct {
		name, query string
		legs        []backend
	}{
		{"tree8-90k", "bintree8", []backend{local(engine.SimName, 2), onePartition}},
		{"cycle5-90k", "glet2", []backend{local(engine.SimName, 2), local(engine.ParallelName, 2), loopback2(t)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			q := query.MustByName(c.query)
			colors, hColors := colouring(g.N(), q.K, rng), colouring(h.N(), q.K, rng)
			plan, err := core.PickPlan(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, be := range c.legs {
				inG, _ := counts(t, be, g, q, colors, plan, -1)
				inH, _ := counts(t, be, h, q, hColors, plan, -1)
				both, _ := counts(t, be, union, q, slices.Concat(colors, hColors), plan, -1)
				if both != inG+inH || inG == 0 || inH == 0 {
					t.Fatalf("%s: counted %d in the union, %d + %d in its parts", be.name, both, inG, inH)
				}
			}
		})
	}
}
