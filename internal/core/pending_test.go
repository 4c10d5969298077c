package core

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/decomp"
	"repro/internal/engine"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/query"
)

// RootCycleShapes are the queries whose root block can be a cycle, one per
// way a root cycle's walks are built: plain cycles of every length the
// catalog has and two beyond, cycles whose edges are annotated by a
// contracted cycle (glet1, brain1, the diamond, the theta graph), and
// cycles with tails, whose nodes carry unary annotations — at a walk's
// start (P−'s convention), inside it, and on the last step of a P+.
func RootCycleShapes() []*query.Graph {
	shapes := []*query.Graph{
		query.MustByName("glet1"), query.MustByName("brain1"),
		query.FromEdges("diamond", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}),
		query.FromEdges("theta", 5, [][2]int{{0, 2}, {2, 1}, {0, 3}, {3, 1}, {0, 4}, {4, 1}}),
		query.FromEdges("tailed4", 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {1, 4}}),
		query.FromEdges("tailed5", 6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 5}}),
		query.FromEdges("tails4", 6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 4}, {2, 5}}),
		query.FromEdges("sun3", 6, [][2]int{{0, 1}, {1, 2}, {2, 0}, {0, 3}, {1, 4}, {2, 5}}),
		query.FromEdges("sun6", 9, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 6}, {2, 7}, {3, 8}}),
	}
	for l := 3; l <= 8; l++ {
		shapes = append(shapes, query.Cycle(l))
	}
	return shapes
}

// RootCyclePlans returns q's decomposition trees whose root is a cycle
// block, at most limit of them: PickPlan roots a cycle with tails at a
// singleton, and the walks under test are a root cycle's.
func RootCyclePlans(t testing.TB, q *query.Graph, limit int) []*decomp.Tree {
	t.Helper()
	trees, err := decomp.Enumerate(q)
	if err != nil {
		t.Fatal(err)
	}
	var plans []*decomp.Tree
	for _, tr := range trees {
		if tr.Root.Kind == decomp.CycleBlock && len(plans) < limit {
			plans = append(plans, tr)
		}
	}
	if len(plans) == 0 {
		t.Fatalf("%s has no decomposition tree rooted at a cycle", q.Name)
	}
	return plans
}

// The per-start pass charges each join what the old form charged for
// reading one of its walks, and the rule that picks that walk and how it
// was read (perStartPlan) must reach every way a walk's last rows are made,
// or the load goldens next door prove nothing about it: over the root-cycle
// shapes, under the three algorithms, a pending walk's last step is a plain
// edge (the join takes it as it goes), an annotated edge and a node step;
// it belongs to a P− and to a P+, to a walk that started at an annotated
// node, and some joins read a walk that is built and read more than once.
// (A walk's first edge never makes the pending walk of these shapes: a
// one-step walk is the shorter of its split and, unannotated, a prefix of
// others.) Each plan's count is checked against exact enumeration.
func TestPendingWalksCoverEveryBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := gen.ErdosRenyi("er", 40, 140, rng)
	seen := map[string]int{}
	for _, q := range RootCycleShapes() {
		colors := randColors(g.N(), q.K, rng)
		want := exact.ColorfulMatches(g, q, colors)
		for _, plan := range RootCyclePlans(t, q, 3) {
			for _, alg := range []Algorithm{DB, PS, PSEven} {
				s := newSolver(context.Background(), g, colors, q.K, engine.NewCluster(2, g.N()), alg)
				root := s.solveBelowRoot(plan)
				p := s.perStartPlan(root)
				s.walks.release()
				for _, sp := range p.splits {
					// (A plain even cycle's two walks are one walk, joined with itself.)
					if sp.stream != sp.plus && sp.stream != sp.minus {
						t.Fatalf("%s: the rule read walk %d of the split (%d, %d)", q.Name, sp.stream, sp.plus, sp.minus)
					}
					n := p.nodes[sp.stream]
					switch par := p.nodes[n.parent]; {
					case !sp.pend:
						seen["compacted"]++
					case n.step.nodeAnn != nil:
						seen["nodeJoin"]++
					case par.parent < 0 && par.ann == nil:
						seen["initEdge"]++
					case n.step.edgeAnn != nil:
						seen["annotated edge"]++
					default:
						seen["plain edge"]++
						if !sp.fused {
							t.Errorf("%s %v: a pending walk whose last step is a plain edge is built", q.Name, alg)
						}
					}
					if sp.pend {
						if sp.stream == sp.plus {
							seen["P+"]++
						} else {
							seen["P−"]++
						}
						at := sp.stream
						for p.nodes[at].parent >= 0 {
							at = p.nodes[at].parent
						}
						if p.nodes[at].ann != nil {
							seen["start annotation"]++
						}
					}
				}
				got := s.solveRootCycle(root)
				s.drop(root.Children)
				if got != want {
					t.Errorf("%s %v, plan %s: counted %d, exact enumeration %d", q.Name, alg, plan.Encode(), got, want)
				}
			}
		}
	}
	for _, kind := range []string{"plain edge", "annotated edge", "nodeJoin", "P+", "P−", "start annotation", "compacted"} {
		if seen[kind] == 0 {
			t.Errorf("no join of the suite read a walk of the kind %q: %v", kind, seen)
		}
	}
}

// Only a root cycle's join streams a pending table. Blocks with boundary
// nodes — every cycle under the root, and the root itself in a per-vertex
// run — compact both walks and examine the same pairs as the two-cursor
// merge did: their supersteps, load, table entries and sim messages are the
// parent commit's, value for value (below: the blocks under the root; per:
// the whole per-vertex run, anchored at the root's first node; sim@4, an
// 80-vertex graph). The one exception is ecoli1's table entries, in its
// leaf blocks, not its cycles: a leaf block's tables are all left pending
// and read where they lie, so none is counted. First a leaf walk's last table,
// which the projection takes over box by box, and the edge table its nodeJoin
// reads row by row: 2858 entries, 15 267 → 12 409 under DB and 18 643 →
// 15 785 under PS and PSEven. Then the leaf blocks' outputs, which their
// parents read row by row, and the first table of any leaf walk whose start
// is annotated, into which its child's boxes move: 4445 more, → 7964 under
// DB and → 11 340 under PS and PSEven. Supersteps and load are the parent's
// there too. And ecoli1's messages, whose leaf walks pull their data edges:
// a pulled step books the rows it reads from other partitions, not the
// entries its push form would stage, 17 147 → 15 863 under DB and 20 697 →
// 19 413 under PS and PSEven.
func TestBoundaryBlocksCostWhatTheyDid(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	g := gen.ErdosRenyi("er", 80, 400, rng)
	type golden struct {
		alg        Algorithm
		below, per [4]int64 // supersteps, load, table entries, messages
	}
	for _, c := range []struct {
		q    *query.Graph
		want []golden
	}{
		{query.FromEdges("theta", 5, [][2]int{{0, 2}, {2, 1}, {0, 3}, {3, 1}, {0, 4}, {4, 1}}), []golden{
			{DB, [4]int64{8, 12472, 3199, 4070}, [4]int64{18, 22673, 5667, 7392}},
			{PS, [4]int64{3, 11402, 4388, 5392}, [4]int64{7, 20396, 8805, 10300}},
			{PSEven, [4]int64{3, 11402, 4388, 5392}, [4]int64{7, 20396, 8805, 10300}},
		}},
		{query.FromEdges("diamond", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}), []golden{
			{DB, [4]int64{7, 6651, 2355, 2473}, [4]int64{18, 13992, 4372, 5001}},
			{PS, [4]int64{3, 6791, 3250, 3554}, [4]int64{7, 11501, 4829, 5294}},
			{PSEven, [4]int64{3, 6791, 3250, 3554}, [4]int64{7, 11501, 4829, 5294}},
		}},
		{query.MustByName("ecoli1"), []golden{ // the root is a singleton: below is the whole run
			{DB, [4]int64{21, 47573, 7964, 15863}, [4]int64{21, 47573, 7964, 15863}},
			{PS, [4]int64{12, 47063, 11340, 19413}, [4]int64{12, 47063, 11340, 19413}},
			{PSEven, [4]int64{12, 47063, 11340, 19413}, [4]int64{12, 47063, 11340, 19413}},
		}},
		{query.MustByName("glet1"), []golden{
			{DB, [4]int64{7, 6937, 2687, 2813}, [4]int64{22, 19582, 5801, 6907}},
			{PS, [4]int64{3, 7122, 3732, 4124}, [4]int64{8, 19844, 8592, 9608}},
			{PSEven, [4]int64{3, 7122, 3732, 4124}, [4]int64{8, 19844, 8592, 9608}},
		}},
		{query.MustByName("glet2"), []golden{
			{DB, [4]int64{}, [4]int64{13, 44438, 10647, 13982}},
			{PS, [4]int64{}, [4]int64{4, 45815, 12206, 18596}},
			{PSEven, [4]int64{}, [4]int64{4, 45815, 12206, 18596}},
		}},
		{query.MustByName("brain1"), []golden{
			{DB, [4]int64{8, 16436, 6236, 6936}, [4]int64{33, 518626, 73880, 98072}},
			{PS, [4]int64{4, 58396, 31486, 37451}, [4]int64{11, 407588, 101322, 136273}},
			{PSEven, [4]int64{5, 23814, 13950, 14880}, [4]int64{12, 373006, 83786, 113702}},
		}},
	} {
		colors := randColors(g.N(), c.q.K, rng)
		plan, err := PickPlan(c.q)
		if err != nil {
			t.Fatal(err)
		}
		anchor := plan.Root.Nodes[0]
		wantPer := exact.ColorfulMatchesPerVertex(g, c.q, colors, anchor)
		for _, w := range c.want {
			be := engine.NewCluster(4, g.N())
			s := newSolver(context.Background(), g, colors, c.q.K, be, w.alg)
			root := s.solveBelowRoot(plan)
			_, _, load := engine.LoadStats(be.Loads())
			if below := [4]int64{be.Steps(), load, s.entries, be.Messages()}; below != w.below {
				t.Errorf("%s %v, the blocks under the root: supersteps, load, table entries, messages %v; at the parent commit %v", c.q.Name, w.alg, below, w.below)
			}
			s.drop(root.Children)
			per, _, st, err := CountColorfulPerVertex(g, c.q, colors, anchor, Options{Algorithm: w.alg, Backend: "sim", Workers: 4, Plan: plan})
			if err != nil {
				t.Fatal(err)
			}
			for v := range per {
				if per[v] != wantPer[v] {
					t.Fatalf("%s %v: vertex %d anchors %d matches, exact enumeration %d", c.q.Name, w.alg, v, per[v], wantPer[v])
				}
			}
			if got := [4]int64{st.Supersteps, st.TotalLoad, st.TableEntries, st.Messages}; got != w.per {
				t.Errorf("%s %v, per vertex: supersteps, load, table entries, messages %v; at the parent commit %v", c.q.Name, w.alg, got, w.per)
			}
		}
	}
}

// armedCancel is a context that cancels itself at the first poll after arm.
type armedCancel struct {
	context.Context
	cancel context.CancelFunc
	armed  atomic.Bool
}

func (c *armedCancel) Done() <-chan struct{} {
	if c.armed.Load() {
		c.cancel()
	}
	return c.Context.Done()
}

// Loopback2 returns the coordinator's backend of job on a two-rank
// loopback pool that lives as long as t. internal/dist imports core, so the
// external test package, which can import it, sets it (rootcycle_test.go).
var Loopback2 func(t *testing.T, job engine.Job) engine.Backend
