package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/decomp"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/table"
)

// built returns the trie's step nodes — the tables a block's walks cost.
func (t walkTrie) built() int {
	c := 0
	for _, n := range t {
		if n.parent != nil {
			c++
		}
	}
	return c
}

// live returns how many of the trie's nodes hold a table right now.
func (t walkTrie) live() int {
	c := 0
	for _, n := range t {
		if n.table != nil {
			c++
		}
	}
	return c
}

// tracedSolver returns a solver on backend, workers wide, over g, bounded by
// ctx, whose every span end — one per superstep — calls atSpan first, on
// the solver's own goroutine.
func tracedSolver(t *testing.T, ctx context.Context, backend string, workers int, g *graph.Graph, colors []uint8, k int, atSpan func(s *solver, phase string)) *solver {
	t.Helper()
	be, err := engine.New(backend, workers, engine.Job{N: g.N()})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace(t.Name())
	s := newSolver(obs.WithTrace(ctx, tr), g, colors, k, be, DB)
	tr.SetSink(func(phase string, _ float64) { atSpan(s, phase) })
	return s
}

// solveBelowRoot solves every block of plan under its root, in order, and
// returns the root.
func (s *solver) solveBelowRoot(plan *decomp.Tree) *decomp.Block {
	for _, b := range plan.Blocks {
		switch {
		case b == plan.Root:
		case b.Kind == decomp.LeafEdge:
			s.tables[b] = s.solveLeaf(b)
		case b.Kind == decomp.CycleBlock:
			s.tables[b] = s.solveCycle(b)
		}
		if b != plan.Root {
			s.drop(b.Children)
		}
	}
	return plan.Root
}

// The trie's key is the walk's structure and nothing else. These are the
// sizes of the DB tries over PickPlan's plans, distinct step tables over
// the steps of all 2L walks of every cycle block: a key that forgot the
// record slot, the orientation or the order constraint would merge walks
// that differ and come out smaller; one that looked at query node ids
// would share nothing between splits and come out at steps/steps.
func TestWalkTrieSizes(t *testing.T) {
	for _, c := range []struct {
		query         string
		tables, steps int
		rootJoins     int // joins the root cycle is left with; 0 = the root is no cycle
	}{
		{"glet2", 3, 25, 1}, // five identical splits: one join, times five
		{"glet1", 12, 25, 4},
		{"brain1", 19, 52, 6},
		{"brain2", 24, 65, 7},
		{"brain3", 28, 80, 8},
		{"dros", 8, 25, 0},
		{"ecoli1", 8, 25, 0},
		{"ecoli2", 8, 32, 0},
		{"youtube", 4, 16, 0},
	} {
		plan, err := PickPlan(query.MustByName(c.query))
		if err != nil {
			t.Fatal(err)
		}
		s := newSolver(context.Background(), nil, nil, 1, engine.NewCluster(1, 1), DB)
		tables, steps, rootJoins := 0, 0, 0
		for _, b := range plan.Blocks {
			if b.Kind != decomp.CycleBlock {
				continue
			}
			splits := s.splits(b)
			var stands uint64
			for _, sp := range splits {
				steps += int(sp.times) * (sp.plus.steps() + sp.minus.steps())
				stands += sp.times
			}
			if int(stands) != b.Len() {
				t.Errorf("%s: the splits of a %d-cycle stand for %d", c.query, b.Len(), stands)
			}
			tables += s.walks.built()
			if b == plan.Root {
				rootJoins = len(splits)
			} else if len(splits) != b.Len() {
				t.Errorf("%s: a cycle with boundary nodes kept %d of its %d splits", c.query, len(splits), b.Len())
			}
		}
		if tables != c.tables || steps != c.steps || rootJoins != c.rootJoins {
			t.Errorf("%s: %d tables for %d walk steps, %d root joins; want %d for %d, %d",
				c.query, tables, steps, rootJoins, c.tables, c.steps, c.rootJoins)
		}
	}
}

// The sibling of TestChildTableSurvivesItsParentsWalks for the walks
// themselves: a prefix several splits extend is built once, keeps its
// entries — its slabs would be the next table's the moment it let go of
// them — until the last of those splits has used it, and is released
// exactly then. Checked at every superstep of brain1's two cycle blocks
// and of wiki's annotated 3-cycle.
func TestWalkSharedPrefixLivesUntilItsLastUse(t *testing.T) {
	type seen struct {
		total    uint64
		len      int
		released bool
	}
	for _, qn := range []string{"brain1", "wiki", "glet1"} {
		rng := rand.New(rand.NewSource(9))
		g := gen.PowerLawGraph("pl", 300, 1.5, rng)
		q := query.MustByName(qn)
		plan, err := PickPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		var first map[*walk]*seen
		shared, checks := 0, 0
		s := tracedSolver(t, context.Background(), "parallel", 2, g, randColors(g.N(), q.K, rng), q.K, func(s *solver, _ string) {
			for _, n := range s.walks {
				was := first[n]
				switch {
				case n.uses < 0:
					t.Fatalf("%s: a walk of %d steps has %d uses left", qn, n.steps(), n.uses)
				case n.table == nil && was != nil:
					if n.uses != 0 {
						t.Fatalf("%s: a walk of %d steps was released with %d uses to come", qn, n.steps(), n.uses)
					}
					was.released = true
				case n.table == nil:
				case was == nil:
					if n.uses == 0 {
						t.Fatalf("%s: a walk of %d steps was kept with no use to come", qn, n.steps())
					}
					if n.uses > 1 {
						shared++
					}
					first[n] = &seen{total: n.table.Total(), len: n.table.Len()}
				case was.released:
					t.Fatalf("%s: a walk of %d steps was built twice", qn, n.steps())
				default:
					if n.table.Total() != was.total || n.table.Len() != was.len {
						t.Fatalf("%s: a walk of %d steps changed while %d uses were still to come: total %d → %d, %d → %d entries",
							qn, n.steps(), n.uses, was.total, n.table.Total(), was.len, n.table.Len())
					}
					checks++
				}
			}
		})
		for _, b := range plan.Blocks {
			first = map[*walk]*seen{}
			switch {
			case b.Kind == decomp.LeafEdge:
				s.tables[b] = s.solveLeaf(b)
			case b.Kind != decomp.CycleBlock:
			case b == plan.Root:
				s.solveRootCycle(b)
			default:
				s.tables[b] = s.solveCycle(b)
			}
			s.drop(b.Children)
			if n := s.walks.live(); n != 0 {
				t.Fatalf("%s: block %v left %d walk tables behind", qn, b.Nodes, n)
			}
			for n, was := range first {
				if n.uses != 0 {
					t.Fatalf("%s: block %v left a walk of %d steps with %d uses", qn, b.Nodes, n.steps(), n.uses)
				}
				if was.len == 0 {
					t.Fatalf("%s: a walk of %d steps has an empty table; the test needs entries to lose", qn, n.steps())
				}
			}
		}
		if shared == 0 || checks == 0 {
			t.Fatalf("%s: %d shared prefixes seen, %d re-read", qn, shared, checks)
		}
	}
}

// Sharing must not turn into hoarding: a prefix is released after the last
// split that extends it, so the walk tables alive at once during brain3's
// 8-cycle — 24 distinct tables — are the few that refcounting in split
// order has to keep.
func TestWalkLiveTablesBrain3(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.PowerLawGraph("pl", 120, 1.5, rng)
	q := query.MustByName("brain3")
	plan, err := PickPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	s := tracedSolver(t, context.Background(), "sim", 2, g, randColors(g.N(), q.K, rng), q.K, func(s *solver, _ string) {
		peak = max(peak, s.walks.live())
	})
	root := s.solveBelowRoot(plan)
	if root.Kind != decomp.CycleBlock || root.Len() != 8 {
		t.Fatalf("brain3's root block is %v %v, not its 8-cycle", root.Kind, root.Nodes)
	}
	peak = 0
	s.solveRootCycle(root)
	const wantBuilt, wantPeak = 24, 5
	if built := s.walks.built(); built != wantBuilt || peak != wantPeak {
		t.Errorf("brain3's 8-cycle: %d walk tables built, at most %d alive at a superstep's end; want %d and %d", built, peak, wantBuilt, wantPeak)
	}
}

// stepped is a backend that keeps the table its last superstep built, for a
// test to size before any reader takes it.
type stepped struct {
	engine.Backend
	out *engine.Sharded
}

func (b *stepped) Step(out *engine.Sharded, produce func(w int, to *engine.Lanes)) {
	b.Backend.Step(out, produce)
	b.out = out
}

// pendingRows counts the entries of a table its superstep left pending
// without sweeping a box into entries, which would take the box from the
// reader that reads it in place: the cells of an open box that hold a
// count, the entries of a shard whose box never opened.
func pendingRows(be engine.Backend, t *engine.Sharded) (n int64) {
	for w := 0; w < be.P(); w++ {
		lo, hi := be.Range(w)
		sh := t.Shard(w)
		if row, _ := sh.Row(lo); row == nil {
			n += int64(sh.Len())
			continue
		}
		for v := lo; v < hi; v++ {
			row, _ := sh.Row(v)
			for _, c := range row {
				if c != 0 {
					n++
				}
			}
		}
	}
	return n
}

// A leaf block's walk is start-free, so each of its tables holds boundary
// rows — at most one entry per vertex and colour set of the size the walk
// has reached — however many (leaf, boundary) pairs the graph has. The
// graph is dense enough that the pairs outnumber the rows at every step.
// A walk's tables are sized where they are made: a lift's, compacted, by
// the entries it adds to the stats; an edge step's, left pending for the
// nodeJoin or the projection that reads it, by its open boxes' cells and
// its other shards' entries, as its superstep ends; a nodeJoin's, the
// walk's last and pending, by the projection, whose keys are its keys with
// the vertex moved to the other half.
func TestLeafWalkTablesAreBoundaryRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := gen.ErdosRenyi("er", 100, 3000, rng)
	sizeOf := func(b *decomp.Block) int { return len(b.SubqueryNodes()) }
	for _, q := range []*query.Graph{query.BinaryTree(8), query.Star(5), query.PathGraph(5), query.MustByName("wiki"), query.MustByName("ecoli1")} {
		plan, err := PickPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		var sizes []int64 // of the tables the walk steps of the current block built
		var last, projected int64
		be := &stepped{Backend: engine.NewParallel(2, g.N())}
		tr := obs.NewTrace(t.Name())
		s := newSolver(obs.WithTrace(context.Background(), tr), g, randColors(g.N(), q.K, rng), q.K, be, DB)
		tr.SetSink(func(phase string, _ float64) {
			switch {
			case phase == PhaseLeafJoin:
				projected = s.entries - last
			case phase != PhasePathJoin:
			case be.out != nil:
				sizes = append(sizes, pendingRows(be, be.out))
			case s.entries > last:
				sizes = append(sizes, s.entries-last)
			}
			be.out, last = nil, s.entries
		})
		leaves := 0
		for _, b := range plan.Blocks {
			sizes, last = sizes[:0], s.entries // a cycle block's own table is counted after its last span
			switch b.Kind {
			case decomp.CycleBlock:
				s.tables[b] = s.solveCycle(b)
			case decomp.LeafEdge:
				s.tables[b] = s.solveLeaf(b)
				switch {
				case b.NodeAnn[0] != nil:
					sizes = append(sizes, projected)
				case len(sizes) > 0 && sizes[len(sizes)-1] != projected:
					t.Errorf("%s: leaf block %v projected %d entries out of a walk table of %d", q.Name, b.Nodes, projected, sizes[len(sizes)-1])
				}
				// The colour-set sizes the walk passes through: the start's
				// subquery, plus the edge's, plus the boundary's.
				var reach []int
				at := 1
				if ann := b.NodeAnn[1]; ann != nil {
					at = sizeOf(ann)
					reach = append(reach, at)
				}
				if at++; b.EdgeAnn[0] != nil {
					at += sizeOf(b.EdgeAnn[0]) - 2
				}
				reach = append(reach, at)
				if ann := b.NodeAnn[0]; ann != nil {
					reach = append(reach, at+sizeOf(ann)-1)
				}
				if len(sizes) != len(reach) {
					t.Fatalf("%s: leaf block %v built %d walk tables, its structure says %d", q.Name, b.Nodes, len(sizes), len(reach))
				}
				for i, a := range reach {
					if rows := int64(g.N()) * binomial(q.K, a); sizes[i] > rows || sizes[i] == 0 {
						t.Errorf("%s: leaf block %v, walk table %d holds %d entries; %d vertices × C(%d,%d) colour sets make %d rows",
							q.Name, b.Nodes, i, sizes[i], g.N(), q.K, a, rows)
					}
				}
				leaves++
			}
			s.drop(b.Children)
		}
		if leaves == 0 {
			t.Fatalf("%s: the plan has no leaf block", q.Name)
		}
	}
}

func binomial(n, k int) int64 {
	c := int64(1)
	for i := 1; i <= k; i++ {
		c = c * int64(n-k+i) / int64(i)
	}
	return c
}

// A leaf walk's keys must say so: U = None in every entry of every table it
// builds, so the sort sees one constant word.
func TestLeafWalkKeysCarryNoStart(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := gen.ErdosRenyi("er", 60, 400, rng)
	q := query.BinaryTree(7)
	plan, err := PickPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	inLeaf, checked := false, 0
	s := tracedSolver(t, context.Background(), "sim", 2, g, randColors(g.N(), q.K, rng), q.K, func(s *solver, _ string) {
		for _, n := range s.walks {
			if !inLeaf || n.table == nil {
				continue
			}
			n.table.Iter(func(k table.Key, _ uint64) bool {
				if k.U != table.None {
					t.Fatalf("a leaf walk's table holds the key %+v", k)
				}
				checked++
				return true
			})
		}
	})
	for _, b := range plan.Blocks {
		if inLeaf = b.Kind == decomp.LeafEdge; inLeaf {
			s.tables[b] = s.solveLeaf(b)
		}
		s.drop(b.Children)
	}
	if checked == 0 {
		t.Fatal("no leaf walk table was seen alive")
	}
}
