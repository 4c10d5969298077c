package core

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/decomp"
	"repro/internal/engine"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/table"
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

// The rule that picks the streamed walk (split.sides) must reach every way a
// walk's last table is made, or the backend suite next door proves nothing
// about it: over the root-cycle shapes, under the three algorithms, the
// pending table is the output of a plain edge step, of an annotated edge
// step and of a nodeJoin; it belongs to a P− and to a P+, to a walk that
// started at an annotated node, and some joins stream a compacted table
// because neither walk may pend. (A walk's first edge never makes the
// pending table of these shapes: a one-step walk is the shorter of its split
// and, unannotated, a prefix of others.) Each join is driven by hand, the
// rule asked first, and the sum checked against exact enumeration.
func TestPendingWalksCoverEveryBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := gen.ErdosRenyi("er", 40, 140, rng)
	seen := map[string]int{}
	for _, q := range RootCycleShapes() {
		colors := randColors(g.N(), q.K, rng)
		want := exact.ColorfulMatches(g, q, colors)
		for _, plan := range RootCyclePlans(t, q, 3) {
			for _, alg := range []Algorithm{DB, PS, PSEven} {
				be := engine.NewCluster(2, g.N())
				s := newSolver(context.Background(), g, colors, q.K, be, alg)
				root := s.solveBelowRoot(plan)
				partial := make([]uint64, be.P())
				for _, sp := range s.splits(root) {
					stream, index, pend := sp.sides(true)
					// (A plain even cycle's two walks are one walk, joined with itself.)
					if both := [2]*walk{stream, index}; both != [2]*walk{sp.plus, sp.minus} && both != [2]*walk{sp.minus, sp.plus} {
						t.Fatalf("%s: the rule made %p and %p of the walks %p and %p", q.Name, stream, index, sp.plus, sp.minus)
					}
					switch st := stream.step; {
					case !pend:
						seen["compacted"]++
						if stream.table == nil && stream.uses == 1 {
							t.Errorf("%s %v: a walk of %d steps that only this join reads is compacted", q.Name, alg, stream.steps())
						}
					case st.nodeAnn != nil:
						seen["nodeJoin"]++
					case stream.parent.parent == nil && stream.startAnn == nil:
						seen["initEdge"]++
					case st.edgeAnn != nil:
						seen["annotated edge"]++
					default:
						seen["plain edge"]++
					}
					if pend {
						if stream == sp.plus {
							seen["P+"]++
						} else {
							seen["P−"]++
						}
						if stream.startAnn != nil {
							seen["start annotation"]++
						}
						if stream.uses != 1 || stream.table != nil {
							t.Errorf("%s %v: a walk with %d uses, built %v, is left pending", q.Name, alg, stream.uses, stream.table != nil)
						}
					}
					if !s.joinSplit(root, sp, nil, partial) {
						t.Fatal("an uncanceled run failed to build a walk")
					}
				}
				s.walks.release()
				s.drop(root.Children)
				var got uint64
				for _, p := range partial {
					got += p
				}
				if got != want {
					t.Errorf("%s %v, plan %s: counted %d, exact enumeration %d", q.Name, alg, plan.Encode(), got, want)
				}
			}
		}
	}
	for _, kind := range []string{"plain edge", "annotated edge", "nodeJoin", "P+", "P−", "start annotation", "compacted"} {
		if seen[kind] == 0 {
			t.Errorf("no join of the suite streamed a table of the kind %q: %v", kind, seen)
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

// A run canceled while a pending table is being streamed: the context is
// armed at the end of the superstep that built glet2's last walk table —
// the pending one, its third — so the next poll is a join worker's, a few
// thousand streamed entries in. The run must return ctx's error and no
// count, the join's span must be the one the cancellation ended, and every
// slab — the pending chunks, the built walk's, the index's words — must be
// back in the pool.
func TestCancelWhileStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, ok := gen.StandinByName("enron", 2, 1) // hubs: parallel cuts 512 partitions, and a join task polls once in 4096 entries
	if !ok {
		t.Fatal("no enron stand-in")
	}
	q := query.MustByName("glet2")
	colors := randColors(g.N(), q.K, rng)
	for _, backend := range []string{"sim", "parallel"} {
		held := table.SlabsOut()
		ctx := &armedCancel{}
		ctx.Context, ctx.cancel = context.WithCancel(context.Background())
		tr := obs.NewTrace(t.Name())
		var phases []string
		canceledAt := ""
		tr.SetSink(func(phase string, _ float64) {
			if phases = append(phases, phase); len(phases) == 3 {
				ctx.armed.Store(true)
			}
			if canceledAt == "" && ctx.Context.Err() != nil {
				canceledAt = phase
			}
		})
		got, _, err := CountColorfulContext(obs.WithTrace(ctx, tr), g, q, colors, Options{Backend: backend, Workers: 2})
		if !errors.Is(err, context.Canceled) || got != 0 {
			t.Fatalf("%s: canceled while streaming, the run returned %d and %v", backend, got, err)
		}
		if len(phases) != 4 || phases[2] != PhasePathJoin || phases[3] != PhaseCycleJoin || canceledAt != PhaseCycleJoin {
			t.Fatalf("%s: spans %v, the cancellation seen at the end of %q; want three walk steps and the join that was canceled", backend, phases, canceledAt)
		}
		if left := table.SlabsOut() - held; left != 0 {
			t.Fatalf("%s: canceled while streaming, the run kept %d slabs", backend, left)
		}
	}
	// And at every poll of root cycles with more than one join.
	small := gen.PowerLawGraph("pl", 1500, 1.5, rng)
	for _, qn := range []string{"glet1", "cycle6"} {
		q := query.MustByName(qn)
		colors := randColors(small.N(), q.K, rng)
		for _, backend := range []string{"sim", "parallel"} {
			opts := Options{Backend: backend, Workers: 2}
			cancelEverywhere(t, qn+"/"+backend+"/count", 40, func(ctx context.Context) (bool, error) {
				c, _, err := CountColorfulContext(ctx, small, q, colors, opts)
				return c != 0, err
			})
		}
	}
}
