package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/decomp"
	"repro/internal/engine"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/table"
)

func randColors(n, k int, rng *rand.Rand) []uint8 {
	colors := make([]uint8, n)
	for i := range colors {
		colors[i] = uint8(rng.Intn(k))
	}
	return colors
}

// count runs CountColorful and fails the test on error.
func count(t testing.TB, g *graph.Graph, q *query.Graph, colors []uint8, opts Options) uint64 {
	t.Helper()
	got, _, err := CountColorful(g, q, colors, opts)
	if err != nil {
		t.Fatalf("CountColorful(%s,%s): %v", g.Name, q.Name, err)
	}
	return got
}

// Both algorithms must agree exactly with the brute-force oracle on every
// catalog query over random graphs, for several colorings and worker counts.
func TestMatchesOracleOnCatalog(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	queries := append(query.Catalog(), query.MustByName("satellite"),
		query.Cycle(3), query.Cycle(4), query.Cycle(6),
		query.PathGraph(2), query.PathGraph(5), query.Star(5), query.BinaryTree(7))
	g := gen.ErdosRenyi("er", 60, 240, rng)
	for _, q := range queries {
		colors := randColors(g.N(), q.K, rng)
		want := exact.ColorfulMatches(g, q, colors)
		for _, alg := range []Algorithm{PS, PSEven, DB} {
			for _, workers := range []int{1, 4} {
				got := count(t, g, q, colors, Options{Algorithm: alg, Workers: workers})
				if got != want {
					t.Errorf("%s %s w=%d: got %d, want %d", q.Name, alg, workers, got, want)
				}
			}
		}
	}
}

// Randomized cross-validation: random graphs, random treewidth-2 queries
// assembled from cycles and tails, random colorings.
func TestRandomizedCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 20 + rng.Intn(40)
		g := gen.ErdosRenyi("er", n, int64(2+rng.Intn(5))*int64(n)/2, rng)
		q := randomTW2Query(rng)
		colors := randColors(g.N(), q.K, rng)
		want := exact.ColorfulMatches(g, q, colors)
		for _, alg := range []Algorithm{PS, PSEven, DB} {
			got := count(t, g, q, colors, Options{Algorithm: alg, Workers: 1 + rng.Intn(5)})
			if got != want {
				t.Fatalf("trial %d: %s on %s: got %d, want %d\nquery: %s",
					trial, alg, q.Name, got, want, q)
			}
		}
	}
}

// randomTW2Query builds a random connected treewidth-2 query: a base cycle
// or edge, plus attached cycles (sharing a vertex or an edge) and pendant
// paths, trimmed to ≤ 9 nodes.
func randomTW2Query(rng *rand.Rand) *query.Graph {
	type edge = [2]int
	var edges []edge
	next := 0
	addCycle := func(attachA, attachB int) (int, int) {
		l := 3 + rng.Intn(4)
		first := -1
		prev := attachA
		if prev < 0 {
			prev = next
			first = next
			next++
		} else {
			first = prev
		}
		for i := 1; i < l; i++ {
			var cur int
			if i == l-1 && attachB >= 0 {
				cur = attachB
			} else {
				cur = next
				next++
			}
			edges = append(edges, edge{prev, cur})
			prev = cur
		}
		if attachB < 0 {
			edges = append(edges, edge{prev, first})
			return first, prev
		}
		return first, attachB
	}
	a, b := addCycle(-1, -1)
	for rng.Intn(2) == 0 && next < 7 {
		switch rng.Intn(3) {
		case 0: // share one vertex
			addCycle(a, -1)
		case 1: // attach between two existing vertices (parallel path)
			addCycle(a, b)
		case 2: // pendant path
			prev := b
			for i := 0; i < 1+rng.Intn(2); i++ {
				edges = append(edges, edge{prev, next})
				prev = next
				next++
			}
		}
	}
	q := query.New("rand", next)
	for _, e := range edges {
		q.AddEdge(e[0], e[1])
	}
	if !q.TreewidthAtMost2() || !q.Connected() {
		// Parallel attachments can create treewidth-3 shapes; fall back.
		return query.Cycle(4)
	}
	return q
}

// The solver must be deterministic and independent of worker count.
func TestWorkerCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := gen.PowerLawGraph("pl", 300, 1.5, rng)
	q := query.MustByName("brain1")
	colors := randColors(g.N(), q.K, rng)
	base := count(t, g, q, colors, Options{Algorithm: DB, Workers: 1})
	for _, w := range []int{2, 3, 7, 16, 64} {
		for _, alg := range []Algorithm{PS, DB} {
			if got := count(t, g, q, colors, Options{Algorithm: alg, Workers: w}); got != base {
				t.Errorf("%s w=%d: %d != %d", alg, w, got, base)
			}
		}
	}
}

// Every enumerated decomposition tree must yield the same count (plan
// independence, §6).
func TestPlanInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := gen.ErdosRenyi("er", 40, 140, rng)
	for _, qn := range []string{"brain1", "satellite", "ecoli1"} {
		q := query.MustByName(qn)
		colors := randColors(g.N(), q.K, rng)
		trees, err := decomp.Enumerate(q)
		if err != nil {
			t.Fatal(err)
		}
		want := exact.ColorfulMatches(g, q, colors)
		for i, tr := range trees {
			for _, alg := range []Algorithm{PS, DB} {
				got := count(t, g, q, colors, Options{Algorithm: alg, Workers: 3, Plan: tr})
				if got != want {
					t.Errorf("%s plan %d %s: got %d, want %d\n%s", qn, i, alg, got, want, tr)
				}
			}
		}
	}
}

func TestTinyQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.ErdosRenyi("er", 25, 60, rng)
	// Single node: count = n for any coloring.
	one := query.PathGraph(1)
	if got := count(t, g, one, randColors(g.N(), 1, rng), Options{}); got != uint64(g.N()) {
		t.Errorf("single node: %d, want %d", got, g.N())
	}
	// Single edge: colorful matches = ordered bichromatic adjacent pairs.
	edgeQ := query.PathGraph(2)
	colors := randColors(g.N(), 2, rng)
	want := exact.ColorfulMatches(g, edgeQ, colors)
	if got := count(t, g, edgeQ, colors, Options{Algorithm: DB}); got != want {
		t.Errorf("single edge: %d, want %d", got, want)
	}
}

func TestValidationErrors(t *testing.T) {
	g := gen.ErdosRenyi("er", 10, 20, rand.New(rand.NewSource(1)))
	q := query.Cycle(4)
	if _, _, err := CountColorful(g, q, make([]uint8, 5), Options{}); err == nil {
		t.Error("wrong coloring length accepted")
	}
	bad := make([]uint8, g.N())
	bad[3] = 9
	if _, _, err := CountColorful(g, q, bad, Options{}); err == nil {
		t.Error("out-of-range color accepted")
	}
	k4 := query.FromEdges("k4", 4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	if _, _, err := CountColorful(g, k4, make([]uint8, g.N()), Options{}); err == nil {
		t.Error("treewidth-3 query accepted")
	}
	other, _ := PickPlan(query.Cycle(5))
	if _, _, err := CountColorful(g, q, make([]uint8, g.N()), Options{Plan: other}); err == nil {
		t.Error("mismatched plan accepted")
	}
}

// DB's pruning must reduce total load versus PS on a skewed graph while
// producing identical counts — the paper's core claim in miniature.
func TestDBPrunesLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := gen.ChungLu("skewed", gen.AddHubs(gen.ScaleWeights(gen.PowerLawWeights(400, 1.4), 6), 60, 3), rng)
	q := query.Cycle(5)
	colors := randColors(g.N(), q.K, rng)
	cPS, sPS, err := CountColorful(g, q, colors, Options{Algorithm: PS, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cDB, sDB, err := CountColorful(g, q, colors, Options{Algorithm: DB, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cPS != cDB {
		t.Fatalf("counts differ: PS %d, DB %d", cPS, cDB)
	}
	if sDB.TotalLoad >= sPS.TotalLoad {
		t.Errorf("DB load %d not below PS load %d on a skewed graph", sDB.TotalLoad, sPS.TotalLoad)
	}
	// The backend may not honor the requested width (a dist cluster's rank
	// count is fixed at connect time), so check consistency, not the knob.
	if sDB.MaxLoad <= 0 || sDB.Workers <= 0 || len(sDB.Loads) != sDB.Workers {
		t.Errorf("stats malformed: %+v", sDB)
	}
}

// Tables go back to the slab pool the moment the solver knows them dead,
// and the pool hands their memory to the next table: a table released
// while a walk still reads it would show the next table's entries. A
// child block's table is read by every walk of every split of its parent;
// it must keep its total and its entries until the parent is solved,
// however many walk tables are built and released in between.
func TestChildTableSurvivesItsParentsWalks(t *testing.T) {
	// wiki's 3-cycle folds a unary child in at a node (the row index aliases
	// the child's shards); glet1's 4-cycle crosses a binary child on an edge.
	for _, qn := range []string{"wiki", "glet1"} {
		rng := rand.New(rand.NewSource(9))
		g := gen.PowerLawGraph("pl", 300, 1.5, rng)
		q := query.MustByName(qn)
		colors := randColors(g.N(), q.K, rng)
		plan, err := PickPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		be, err := engine.New("parallel", 3, engine.Job{N: g.N()})
		if err != nil {
			t.Fatal(err)
		}
		s := newSolver(context.Background(), g, colors, q.K, be, DB)
		type snapshot struct {
			total uint64
			ents  map[table.Key]uint64
		}
		snap := func(b *decomp.Block) snapshot {
			sn := snapshot{total: s.tables[b].Total(), ents: map[table.Key]uint64{}}
			for w := range s.be.P() {
				for _, e := range s.tables[b].Shard(w).Ents() {
					sn.ents[e.Key()] = e.C
				}
			}
			return sn
		}
		checked := 0
		for _, b := range plan.Blocks {
			switch {
			case b.Kind == decomp.LeafEdge:
				s.tables[b] = s.solveLeaf(b)
			case b.Kind == decomp.CycleBlock && len(b.Children) == 0:
				s.tables[b] = s.solveCycle(b)
			case b.Kind == decomp.CycleBlock:
				before := make(map[*decomp.Block]snapshot)
				for _, c := range b.Children {
					before[c] = snap(c)
					if len(before[c].ents) == 0 {
						t.Fatalf("%s: child block %v has an empty table; the test needs entries to lose", qn, c.Nodes)
					}
				}
				out := engine.NewSharded(be)
				for i, sp := range s.splits(b) {
					if !s.joinSplit(sp, out) {
						t.Fatal("an uncanceled run failed to build a walk")
					}
					for _, c := range b.Children {
						if after := snap(c); after.total != before[c].total || !reflect.DeepEqual(after.ents, before[c].ents) {
							t.Fatalf("%s: child block %v changed under split %d of its parent: total %d → %d, %d → %d entries",
								qn, c.Nodes, i, before[c].total, after.total, len(before[c].ents), len(after.ents))
						}
						checked++
					}
				}
				s.tables[b] = s.track(out)
			}
			s.drop(b.Children)
		}
		if checked == 0 {
			t.Fatalf("%s: the plan has no cycle block with children", qn)
		}
	}
}
