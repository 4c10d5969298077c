package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/engine"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/query"
)

// treeMatches is a second oracle for tree queries, sharing no code with the
// solver or with internal/exact: the split-an-edge dynamic program of the
// colour-coding literature (Alon et al.), memoised per (subtree, root,
// vertex) and kept as counts per colour set rather than as sets of colour
// sets. The colourful
// maps of a subtree T rooted at r with r ↦ v, by colour set, are those of
// the two halves an edge (r, x) of T splits it into — r's half at v, x's at
// a neighbour u of v — paired over disjoint colour sets; one node at v has
// the one colour set {χ(v)}. Colourful maps are injective, so the total over
// every v at the full colour set is the number of colourful matches.
func treeMatches(g *graph.Graph, q *query.Graph, colors []uint8) uint64 {
	type half struct {
		nodes uint32 // query nodes of the subtree, a bitmap
		root  int
		v     uint32
	}
	type counted struct {
		set uint32
		n   uint64
	}
	memo := map[half][]counted{}
	var maps func(h half) []counted
	maps = func(h half) []counted {
		if got, ok := memo[h]; ok {
			return got
		}
		by := map[uint32]uint64{}
		if h.nodes == 1<<h.root {
			by[1<<colors[h.v]] = 1
		} else {
			x := -1 // r's first neighbour inside the subtree, and x's side of the edge
			for _, y := range q.Neighbors(h.root) {
				if x < 0 && h.nodes>>y&1 == 1 {
					x = y
				}
			}
			far := uint32(1) << x
			for grew := true; grew; {
				grew = false
				for a := 0; a < q.K; a++ {
					for _, b := range q.Neighbors(a) {
						if far>>a&1 == 1 && b != h.root && h.nodes>>b&1 == 1 && far>>b&1 == 0 {
							far, grew = far|1<<b, true
						}
					}
				}
			}
			near := maps(half{h.nodes &^ far, h.root, h.v})
			for _, u := range g.Neighbors(h.v) {
				for _, a := range near {
					for _, b := range maps(half{far, x, u}) {
						if a.set&b.set == 0 {
							by[a.set|b.set] += a.n * b.n
						}
					}
				}
			}
		}
		var got []counted
		for set, n := range by {
			got = append(got, counted{set, n})
		}
		memo[h] = got
		return got
	}
	var total uint64
	for v := 0; v < g.N(); v++ {
		for _, c := range maps(half{1<<q.K - 1, 0, uint32(v)}) {
			if c.set == 1<<q.K-1 {
				total += c.n
			}
		}
	}
	return total
}

// pruferTree returns the labelled tree on k ≥ 2 nodes that a random Prüfer
// sequence encodes: every labelled tree is equally likely.
func pruferTree(k int, rng *rand.Rand) *query.Graph {
	seq := make([]int, k-2)
	degree := make([]int, k)
	for i := range seq {
		seq[i] = rng.Intn(k)
		degree[seq[i]]++
	}
	var edges [][2]int
	for _, a := range seq {
		for leaf := 0; ; leaf++ {
			if degree[leaf] == 0 {
				edges = append(edges, [2]int{leaf, a})
				degree[leaf], degree[a] = -1, degree[a]-1
				break
			}
		}
	}
	var last []int
	for n := range degree {
		if degree[n] == 0 {
			last = append(last, n)
		}
	}
	return query.FromEdges(fmt.Sprintf("prufer%d%v", k, seq), k, append(edges, [2]int{last[0], last[1]}))
}

// Tree queries against two oracles that share no code with each other or
// with the solver: random generated graphs, binary trees, stars, paths and
// random Prüfer trees of up to nine nodes, random colourings, counted on sim
// and parallel at two workers and on a two-rank loopback cluster — every
// table a tree query builds is a leaf block's, read where it lies. The
// colour-set DP must agree with the backtracking enumerator first, or the
// test proves nothing about either.
func TestTreesAgreeWithSecondOracle(t *testing.T) {
	backends := []backend{local(engine.SimName, 2), local(engine.ParallelName, 2), loopback2(t)}
	draws := 40
	if testing.Short() || core.RaceEnabled {
		draws = 8
	}
	rng := rand.New(rand.NewSource(28))
	none := 0
	defer func() {
		if 2*none > draws {
			t.Errorf("%d of %d draws have no colourful match; the test needs matches to miscount", none, draws)
		}
	}()
	for i := 0; i < draws; i++ {
		k := 2 + rng.Intn(8)
		q := []*query.Graph{query.BinaryTree(k), query.Star(k), query.PathGraph(k), pruferTree(k, rng)}[i%4]
		if !q.IsTree() {
			t.Fatalf("%s is no tree", q)
		}
		n := 20 + rng.Intn(30)
		g := gen.ErdosRenyi("er", n, int64(n*(2+rng.Intn(3))), rng)
		colors := make([]uint8, n)
		for v := range colors {
			colors[v] = uint8(rng.Intn(q.K))
		}
		want := treeMatches(g, q, colors)
		if want == 0 {
			none++
		}
		if enumerated := exact.ColorfulMatches(g, q, colors); enumerated != want {
			t.Fatalf("%s on %d vertices: the colour-set DP counts %d, the enumerator %d", q, n, want, enumerated)
		}
		plan, err := core.PickPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, be := range backends {
			opts := be.opts(engine.Job{N: n, Graph: g, Colors: colors, Query: q, Plan: plan, Mode: engine.ModeCount})
			opts.Plan = plan
			got, _, err := core.CountColorful(g, q, colors, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s on %d vertices, %s: counted %d, both oracles %d", q, n, be.name, got, want)
			}
		}
	}
}

// tupleMatches is the second oracle's cycle half, sharing no code with the
// solver or with internal/exact: it tries every tuple of distinct data
// vertices for q's nodes, 0 to k−1, whose colours are distinct, and keeps
// those that carry every query edge onto a data edge. It returns how many
// it kept, and per[a][v], how many of them map node a to vertex v. At most
// 8!/(8−k)! tuples on 8 data vertices: brute force is the point.
func tupleMatches(g *graph.Graph, q *query.Graph, colors []uint8) (total uint64, per [][]uint64) {
	n := g.N()
	per = make([][]uint64, q.K)
	for a := range per {
		per[a] = make([]uint64, n)
	}
	tuple := make([]uint32, q.K)
	var used, seen uint32 // vertices and colours the tuple holds, as bitmaps
	var try func(a int)
	try = func(a int) {
		if a == q.K {
			for x := 0; x < q.K; x++ {
				for _, y := range q.Neighbors(x) {
					if !g.HasEdge(tuple[x], tuple[y]) {
						return
					}
				}
			}
			total++
			for x, v := range tuple {
				per[x][v]++
			}
			return
		}
		for v := uint32(0); int(v) < n; v++ {
			if used>>v&1 == 1 || seen>>colors[v]&1 == 1 {
				continue
			}
			used, seen, tuple[a] = used|1<<v, seen|1<<colors[v], v
			try(a + 1)
			used, seen = used&^(1<<v), seen&^(1<<colors[v])
		}
	}
	try(0)
	return total, per
}

// Queries with cycles against the tuple oracle, which must agree with the
// backtracking enumerator first: random treewidth-2 queries, a theta (three
// paths between two nodes), a diamond (two triangles on an edge), a bowtie
// (two triangles on a node) and a tadpole (a 4-cycle with a tail), on
// random generated graphs of up to 8 vertices under random balanced colourings,
// counted on sim and parallel at two workers and on a two-rank loopback
// cluster — in total and per vertex, at every anchor some decomposition's
// root holds, under each algorithm (DB, PS and PSEven; per vertex, under
// -short or the race detector, one algorithm an anchor in turn). Leaf blocks and
// one-boundary cycle blocks make box tables, each row holding only the
// signatures with its vertex's colour; a pendant tree on a cycle node (the
// tadpole's tail, and many random draws') is a nodeJoin into a walk with a
// start, which each algorithm's walks reach in their own order.
func TestCyclesAgreeWithSecondOracle(t *testing.T) {
	backends := []backend{local(engine.SimName, 2), local(engine.ParallelName, 2), loopback2(t)}
	algs := []core.Algorithm{core.DB, core.PS, core.PSEven}
	draws, short := 40, testing.Short() || core.RaceEnabled
	if short {
		draws = 8
	}
	rng := rand.New(rand.NewSource(37))
	named := []*query.Graph{
		query.FromEdges("theta", 5, [][2]int{{0, 2}, {2, 1}, {0, 3}, {3, 1}, {0, 4}, {4, 1}}),
		query.FromEdges("diamond", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}),
		// A cycle block with one boundary node, a box, and a leaf block
		// whose output a cycle's walk reads.
		query.FromEdges("bowtie", 5, [][2]int{{0, 1}, {1, 2}, {2, 0}, {0, 3}, {3, 4}, {4, 0}}),
		query.FromEdges("tadpole", 6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 4}, {4, 5}}),
	}
	none, anchors := 0, 0
	for i := 0; i < draws+2*len(named); i++ {
		q := core.RandomTW2Query(rng)
		if i >= draws {
			q = named[i%len(named)]
		}
		if q.K > 8 {
			continue // no colourful match fits 8 vertices
		}
		if q.IsTree() {
			t.Fatalf("%s has no cycle", q)
		}
		n := q.K + rng.Intn(9-q.K)
		g := gen.ErdosRenyi("er", n, int64(n*(n-1)/2+rng.Intn(n*n)), rng)
		colors := make([]uint8, n) // balanced, so that every colour is there to match
		for v, p := range rng.Perm(n) {
			colors[v] = uint8(p % q.K)
		}
		want, wantPer := tupleMatches(g, q, colors)
		if want == 0 {
			none++
		}
		if enumerated := exact.ColorfulMatches(g, q, colors); enumerated != want {
			t.Fatalf("%s on %d vertices: the tuple oracle counts %d, the enumerator %d", q, n, want, enumerated)
		}
		trees, err := decomp.Enumerate(q)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := core.PickPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, be := range backends {
			for _, alg := range algs {
				job := engine.Job{N: n, Graph: g, Colors: colors, Query: q, Plan: plan, Algorithm: int(alg), Mode: engine.ModeCount}
				opts := be.opts(job)
				opts.Algorithm, opts.Plan = alg, plan
				got, _, err := core.CountColorful(g, q, colors, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s on %d vertices, %s, %s: counted %d, the tuple oracle %d", q, n, be.name, alg, got, want)
				}
			}
			for anchor := 0; anchor < q.K; anchor++ {
				rooted := rootedAt(trees, anchor)
				if rooted == nil {
					continue
				}
				anchors++
				for a, alg := range algs {
					if short && a != anchors%len(algs) {
						continue // one algorithm an anchor, in turn
					}
					job := engine.Job{N: n, Graph: g, Colors: colors, Query: q, Plan: rooted, Algorithm: int(alg), Mode: engine.ModePerVertex, Anchor: anchor}
					opts := be.opts(job)
					opts.Algorithm, opts.Plan = alg, rooted
					per, _, _, err := core.CountColorfulPerVertex(g, q, colors, anchor, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(per, wantPer[anchor]) {
						t.Fatalf("%s on %d vertices, %s, %s, anchor %d (plan %s): per vertex %v, the tuple oracle %v", q, n, be.name, alg, anchor, rooted.Encode(), per, wantPer[anchor])
					}
				}
			}
		}
	}
	if 2*none > draws || anchors == 0 {
		t.Errorf("%d of %d draws have no colourful match, %d anchors were counted; the test needs matches to miscount", none, draws, anchors)
	}
}

// rootedAt returns the first of trees whose root block holds node, or nil.
func rootedAt(trees []*decomp.Tree, node int) *decomp.Tree {
	for _, tr := range trees {
		if slices.Contains(tr.Root.Nodes, node) {
			return tr
		}
	}
	return nil
}

// Colour coding's scaling, pinned exactly (Malík et al. list it among the
// pitfalls): a match of a k-node query maps its nodes to k distinct
// vertices, which get k distinct colours under k!·k^(n−k) of the k^n
// colourings of n vertices. So on a graph of six vertices, the colourful
// counts over every colouring sum to exact.Matches·k!·k^(n−k) — for a path,
// a cycle and a cycle with an annotated edge (the last not under the race
// detector), with no sampling in it.
func TestColourfulScalingIsExact(t *testing.T) {
	g := graph.FromEdges("k6-2", 6, [][2]uint32{
		{0, 2}, {0, 3}, {0, 4}, {0, 5}, {1, 2}, {1, 3}, {1, 4}, {1, 5},
		{2, 4}, {2, 5}, {3, 4}, {3, 5}, {4, 5},
	})
	queries := []string{"path3", "cycle4", "glet1"}
	if core.RaceEnabled { // glet1's 5^6 serial runs find no race the others do not
		queries = queries[:2]
	}
	for _, qn := range queries {
		q := query.MustByName(qn)
		n, k := g.N(), q.K
		want := exact.Matches(g, q)
		for i := range k {
			want *= uint64(i + 1)
		}
		for range n - k {
			want *= uint64(k)
		}
		colors := make([]uint8, n)
		var sum uint64
		for {
			c, _, err := core.CountColorful(g, q, colors, core.Options{Backend: engine.ParallelName, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			sum += c
			i := 0 // the next colouring, counting in base k
			for ; i < n && int(colors[i]) == k-1; i++ {
				colors[i] = 0
			}
			if i == n {
				break
			}
			colors[i]++
		}
		if sum != want || want == 0 {
			t.Errorf("%s: the colourful counts over all %d^%d colourings sum to %d; exact.Matches·k!·k^(n−k) = %d", qn, k, n, sum, want)
		}
	}
}
