package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/decomp"
	"repro/internal/engine"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
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

// joinByHand solves plan's blocks under its root cycle on be, then joins
// the cycle's splits one at a time, handing each to visit with the join to
// run — visit runs it, once — and returns the count the joins summed.
func joinByHand(t testing.TB, be engine.Backend, g *graph.Graph, q *query.Graph, colors []uint8, plan *decomp.Tree, alg Algorithm, visit func(sp split, join func())) uint64 {
	t.Helper()
	s := newSolver(context.Background(), g, colors, q.K, be, alg)
	root := s.solveBelowRoot(plan)
	partial := make([]uint64, be.P())
	for _, sp := range s.splits(root) {
		visit(sp, func() {
			if !s.joinSplit(root, sp, nil, partial) {
				t.Fatal("an uncanceled run failed to build a walk")
			}
		})
	}
	s.walks.release()
	s.drop(root.Children)
	var sum uint64
	for _, p := range partial {
		sum += p
	}
	return sum
}

// PlainEdgeStreams returns how many of the root cycle's joins under plan and
// alg stream a pending walk whose last step is a plain data edge out of a
// prefix with a table — the joins a backend that can pull takes in pull
// form — asking split.sides before each join, as the solver does.
func PlainEdgeStreams(t testing.TB, g *graph.Graph, q *query.Graph, colors []uint8, plan *decomp.Tree, alg Algorithm) (n int) {
	joinByHand(t, engine.NewCluster(2, g.N()), g, q, colors, plan, alg, func(sp split, join func()) {
		stream, _, pend := sp.sides(true)
		bare := stream.parent.parent == nil && stream.startAnn == nil
		if st := stream.step; pend && st.edgeAnn == nil && st.nodeAnn == nil && !bare {
			n++
		}
		join()
	})
	return n
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
// rule asked first, and the sum checked against exact enumeration. A plain
// edge step is the join's own on sim (pullJoin): that walk is never built.
func TestPendingWalksCoverEveryBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := gen.ErdosRenyi("er", 40, 140, rng)
	seen := map[string]int{}
	for _, q := range RootCycleShapes() {
		colors := randColors(g.N(), q.K, rng)
		want := exact.ColorfulMatches(g, q, colors)
		for _, plan := range RootCyclePlans(t, q, 3) {
			for _, alg := range []Algorithm{DB, PS, PSEven} {
				got := joinByHand(t, engine.NewCluster(2, g.N()), g, q, colors, plan, alg, func(sp split, join func()) {
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
					join()
				})
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

// Loopback2 returns the coordinator's backend of job on a two-rank
// loopback pool that lives as long as t. internal/dist imports core, so the
// external test package, which can import it, sets it (rootcycle_test.go).
var Loopback2 func(t *testing.T, job engine.Job) engine.Backend

// A run canceled inside a root join, in either of its forms. On sim and
// parallel glet2's join pulls its last walk step (pullJoin): the context is
// armed at the end of the superstep that built the walk's prefix — the
// second — so the next poll is a join worker's, a few thousand runs in. On a
// two-rank loopback pool, which cannot pull, the walk is built pending and
// streamed: the context is canceled at the end of the superstep that built
// it, the third, while the ranks go on to stream it. Each leg must return
// ctx's error and no count, the join's span must be the first the
// cancellation ended, and every slab — the pending chunks, the walks', the
// index's and the run offsets' words, the ranks' — must be back in the pool.
// And the prefix a pulled join extends is released as the join returns, not
// when the block ends: glet2's, which its one join both extends and
// indexes, is gone right after joinSplit.
func TestCancelWhileStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, ok := gen.StandinByName("enron", 2, 1) // hubs: parallel cuts 512 partitions, and a join task polls once in 4096 entries
	if !ok {
		t.Fatal("no enron stand-in")
	}
	q := query.MustByName("glet2")
	colors := randColors(g.N(), q.K, rng)
	plan, err := PickPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, leg := range []struct {
		backend string
		pulls   bool
	}{{"sim", true}, {"parallel", true}, {"dist@2", false}} {
		held := table.SlabsOut()
		ctx := &armedCancel{}
		ctx.Context, ctx.cancel = context.WithCancel(context.Background())
		tr := obs.NewTrace(t.Name())
		var phases []string
		canceledAt := ""
		tr.SetSink(func(phase string, _ float64) {
			if canceledAt == "" && ctx.Context.Err() != nil {
				canceledAt = phase
			}
			switch phases = append(phases, phase); {
			case leg.pulls && len(phases) == 2:
				ctx.armed.Store(true)
			case !leg.pulls && len(phases) == 3:
				ctx.cancel() // the coordinator polls between supersteps only; its ranks watch the context
			}
		})
		traced := obs.WithTrace(ctx, tr)
		opts := Options{Backend: leg.backend, Workers: 2}
		if !leg.pulls {
			opts = Options{Plan: plan, Engine: Loopback2(t, engine.Job{N: g.N(), Graph: g, Colors: colors, Query: q, Plan: plan, Mode: engine.ModeCount, Ctx: traced})}
		}
		got, _, err := CountColorfulContext(traced, g, q, colors, opts)
		if !errors.Is(err, context.Canceled) || got != 0 {
			t.Fatalf("%s: canceled in the join, the run returned %d and %v", leg.backend, got, err)
		}
		want := []string{PhasePathJoin, PhasePathJoin, PhaseCycleJoin}
		if !leg.pulls {
			want = []string{PhasePathJoin, PhasePathJoin, PhasePathJoin, PhaseCycleJoin}
		}
		if !slices.Equal(phases, want) || canceledAt != PhaseCycleJoin {
			t.Fatalf("%s: spans %v, the cancellation seen at the end of %q; want %v and the join that was canceled", leg.backend, phases, canceledAt, want)
		}
		// A loopback rank unwinds on its own goroutines after the
		// coordinator returns; sim and parallel must be back at once.
		if !leg.pulls {
			for deadline := time.Now().Add(10 * time.Second); table.SlabsOut() != held && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			}
		}
		if left := table.SlabsOut() - held; left != 0 {
			t.Fatalf("%s: canceled in the join, the run kept %d slabs", leg.backend, left)
		}
	}
	joins := 0
	joinByHand(t, engine.NewCluster(2, g.N()), g, q, colors, plan, DB, func(sp split, join func()) {
		stream, _, pend := sp.sides(true)
		parent := stream.parent
		if !pend || !stream.pulls() || parent.uses != 2 || parent != sp.plus {
			t.Fatalf("glet2's join streams a walk that may pend: %v, pulls: %v, whose prefix, P+: %v, has %d uses", pend, stream.pulls(), parent == sp.plus, parent.uses)
		}
		join()
		if parent.table != nil || parent.uses != 0 || stream.table != nil {
			t.Fatalf("right after the pulled join: the prefix holds a table: %v, with %d uses; the walk holds one: %v", parent.table != nil, parent.uses, stream.table != nil)
		}
		joins++
	})
	if joins != 1 {
		t.Fatalf("glet2's root cycle made %d joins, want its one", joins)
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
