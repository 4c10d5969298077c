package decomp

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/query"
)

func mustEnumerate(t *testing.T, q *query.Graph) []*Tree {
	t.Helper()
	trees, err := Enumerate(q)
	if err != nil {
		t.Fatalf("Enumerate(%s): %v", q.Name, err)
	}
	return trees
}

// checkTree validates the structural invariants every decomposition tree
// must satisfy (§4.1–4.2).
func checkTree(t *testing.T, tr *Tree) {
	t.Helper()
	q := tr.Query
	// Every original query edge is consumed by exactly one block position
	// whose EdgeAnn is nil.
	consumed := map[[2]int]int{}
	for _, b := range tr.Blocks {
		switch b.Kind {
		case CycleBlock:
			l := b.Len()
			if l < 3 {
				t.Fatalf("%s: cycle of length %d", q.Name, l)
			}
			for i := 0; i < l; i++ {
				if b.EdgeAnn[i] == nil {
					consumed[normEdge(b.Nodes[i], b.Nodes[(i+1)%l])]++
				}
			}
		case LeafEdge:
			if b.Len() != 2 {
				t.Fatalf("%s: leaf block with %d nodes", q.Name, b.Len())
			}
			if b.EdgeAnn[0] == nil {
				consumed[normEdge(b.Nodes[0], b.Nodes[1])]++
			}
		case SingletonRoot:
			if b != tr.Root {
				t.Fatalf("%s: singleton below root", q.Name)
			}
		}
		if len(b.Boundary) > 2 {
			t.Fatalf("%s: block %v has %d boundary nodes", q.Name, b, len(b.Boundary))
		}
		if b != tr.Root && b.Kind != LeafEdge && len(b.Boundary) == 0 {
			t.Fatalf("%s: non-root cycle %v without boundary", q.Name, b)
		}
	}
	for _, e := range q.Edges() {
		if consumed[normEdge(e[0], e[1])] != 1 {
			t.Fatalf("%s: edge %v consumed %d times\n%s", q.Name, e, consumed[normEdge(e[0], e[1])], tr)
		}
	}
	for key, c := range consumed {
		if !q.HasEdge(key[0], key[1]) || c != 1 {
			t.Fatalf("%s: phantom edge %v", q.Name, key)
		}
	}
	// Root subquery covers all query nodes.
	if got := tr.Root.SubqueryNodes(); len(got) != q.K {
		t.Fatalf("%s: root subquery has %d nodes, want %d\n%s", q.Name, len(got), q.K, tr)
	}
	// Postorder: children before parents.
	pos := map[*Block]int{}
	for i, b := range tr.Blocks {
		pos[b] = i
	}
	for _, b := range tr.Blocks {
		for _, c := range b.Children {
			if pos[c] >= pos[b] {
				t.Fatalf("%s: child after parent in postorder", q.Name)
			}
		}
	}
	if tr.Blocks[len(tr.Blocks)-1] != tr.Root {
		t.Fatalf("%s: root not last in postorder", q.Name)
	}
}

func normEdge(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

func TestCatalogDecompositions(t *testing.T) {
	for _, q := range append(query.Catalog(), query.MustByName("satellite")) {
		trees := mustEnumerate(t, q)
		if len(trees) == 0 {
			t.Fatalf("%s: no trees", q.Name)
		}
		for _, tr := range trees {
			checkTree(t, tr)
		}
	}
}

// TestPlanSpaceIsCapped: a hub's tree count grows factorially (a star of
// k nodes has 2·(k−1)! trees). star8's 10 080 and bintree12's 352 are
// listed; star9's 80 640 are refused with ErrPlanSpace.
func TestPlanSpaceIsCapped(t *testing.T) {
	for _, c := range []struct {
		q    *query.Graph
		want int
	}{{query.Star(8), 10080}, {query.BinaryTree(12), 352}} {
		if got := len(mustEnumerate(t, c.q)); got != c.want {
			t.Errorf("%s: %d trees, want %d", c.q.Name, got, c.want)
		}
	}
	if trees, err := Enumerate(query.Star(9)); !errors.Is(err, ErrPlanSpace) {
		t.Errorf("star9: %d trees, err %v; want ErrPlanSpace", len(trees), err)
	}
}

// brain1 is a 6-cycle and a 4-cycle sharing an edge; per §6 it admits
// exactly two decomposition trees.
func TestBrain1HasTwoTrees(t *testing.T) {
	trees := mustEnumerate(t, query.MustByName("brain1"))
	if len(trees) != 2 {
		for _, tr := range trees {
			t.Log(tr)
		}
		t.Fatalf("brain1: %d trees, want 2", len(trees))
	}
}

// Trees (treewidth 1) decompose purely into leaf-edge blocks.
func TestTreeQueriesOnlyLeafBlocks(t *testing.T) {
	for _, q := range []*query.Graph{query.PathGraph(5), query.Star(6), query.BinaryTree(12)} {
		for _, tr := range mustEnumerate(t, q) {
			checkTree(t, tr)
			leaves := 0
			for _, b := range tr.Blocks {
				switch b.Kind {
				case CycleBlock:
					t.Fatalf("%s: cycle block in a tree query", q.Name)
				case LeafEdge:
					leaves++
				}
			}
			if leaves != q.K-1 {
				t.Fatalf("%s: %d leaf blocks, want %d", q.Name, leaves, q.K-1)
			}
		}
	}
}

// Pure cycles decompose into a single root cycle block with no boundary.
func TestPureCycle(t *testing.T) {
	for _, l := range []int{3, 4, 5, 8} {
		trees := mustEnumerate(t, query.Cycle(l))
		if len(trees) != 1 {
			t.Fatalf("cycle%d: %d trees, want 1", l, len(trees))
		}
		root := trees[0].Root
		if root.Kind != CycleBlock || root.Len() != l || len(root.Boundary) != 0 {
			t.Fatalf("cycle%d: bad root %v", l, root)
		}
	}
}

// The satellite query must admit the exact tree narrated in §4.1 Figure 2:
// B1 = 5-cycle(a..e) bnd {a,c}; B2 = leaf (f,h); B3 = 4-cycle(a,f,g,c)
// parent of B1, B2; B4 = triangle(i,j,k) bnd {i}; root = triangle(i,f,g)
// parent of B3, B4.
func TestSatelliteDecomposition(t *testing.T) {
	q := query.MustByName("satellite")
	trees := mustEnumerate(t, q)
	found := false
	for _, tr := range trees {
		root := tr.Root
		if root.Kind != CycleBlock || root.Len() != 3 {
			continue
		}
		if !sameNodes(root.Nodes, []int{5, 6, 8}) { // f, g, i
			continue
		}
		// Root children: the 4-cycle {a,f,g,c} and the triangle {i,j,k}.
		var has4cycle, hasIJK bool
		for _, c := range root.Children {
			if c.Kind == CycleBlock && sameNodes(c.Nodes, []int{0, 5, 6, 2}) {
				// Its children must be the 5-cycle and the leaf (f,h).
				var has5, hasLeaf bool
				for _, cc := range c.Children {
					if cc.Kind == CycleBlock && cc.Len() == 5 {
						has5 = true
					}
					if cc.Kind == LeafEdge && sameNodes(cc.Nodes, []int{5, 7}) {
						hasLeaf = true
					}
				}
				has4cycle = has5 && hasLeaf
			}
			if c.Kind == CycleBlock && sameNodes(c.Nodes, []int{8, 9, 10}) {
				hasIJK = true
			}
		}
		if has4cycle && hasIJK {
			found = true
			break
		}
	}
	if !found {
		var encs []string
		for _, tr := range trees {
			encs = append(encs, tr.Encode())
		}
		t.Fatalf("satellite: Figure 2 tree not among %d trees:\n%s",
			len(trees), strings.Join(encs, "\n"))
	}
}

func sameNodes(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]int(nil), a...)
	bs := append([]int(nil), b...)
	sort.Ints(as)
	sort.Ints(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func TestRejectsBadQueries(t *testing.T) {
	k4 := query.FromEdges("k4", 4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	if _, err := Enumerate(k4); err == nil {
		t.Fatal("K4 (treewidth 3) accepted")
	}
	disc := query.New("disc", 3)
	disc.AddEdge(0, 1)
	if _, err := Enumerate(disc); err == nil {
		t.Fatal("disconnected query accepted")
	}
}

func TestSingleNodeAndEdge(t *testing.T) {
	one := mustEnumerate(t, query.PathGraph(1))[0]
	if one.Root.Kind != SingletonRoot || len(one.Root.Children) != 0 {
		t.Fatalf("single node: %v", one)
	}
	edge := mustEnumerate(t, query.PathGraph(2))[0]
	if edge.Root.Kind != SingletonRoot || len(edge.Root.Children) != 1 {
		t.Fatalf("single edge: %v", edge)
	}
	if edge.Root.Children[0].Kind != LeafEdge {
		t.Fatal("single edge: child is not a leaf block")
	}
}

// Enumeration must be deterministic and deduplicate by encoding.
func TestEnumerateDeterministic(t *testing.T) {
	q := query.MustByName("ecoli2")
	a := mustEnumerate(t, q)
	b := mustEnumerate(t, q)
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	seen := map[string]bool{}
	for i := range a {
		ea, eb := a[i].Encode(), b[i].Encode()
		if ea != eb {
			t.Fatalf("order differs at %d", i)
		}
		if seen[ea] {
			t.Fatalf("duplicate tree %s", ea)
		}
		seen[ea] = true
	}
}

// Property: random treewidth-2 queries (cycles glued at vertices/edges with
// pendant paths) always decompose, and every enumerated tree satisfies the
// structural invariants.
func TestQuickRandomQueries(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := randomTW2(rng)
		trees, err := Enumerate(q)
		if err != nil || len(trees) == 0 {
			return false
		}
		// Reuse the full checker on the first few trees.
		for _, tr := range trees[:min(3, len(trees))] {
			if !structurallySound(tr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// structurallySound is the assertion core of checkTree as a predicate.
func structurallySound(tr *Tree) bool {
	q := tr.Query
	consumed := map[[2]int]int{}
	for _, b := range tr.Blocks {
		if len(b.Boundary) > 2 {
			return false
		}
		switch b.Kind {
		case CycleBlock:
			l := b.Len()
			if l < 3 {
				return false
			}
			for i := 0; i < l; i++ {
				if b.EdgeAnn[i] == nil {
					consumed[normEdge(b.Nodes[i], b.Nodes[(i+1)%l])]++
				}
			}
		case LeafEdge:
			if b.EdgeAnn[0] == nil {
				consumed[normEdge(b.Nodes[0], b.Nodes[1])]++
			}
		}
	}
	for _, e := range q.Edges() {
		if consumed[normEdge(e[0], e[1])] != 1 {
			return false
		}
	}
	return len(tr.Root.SubqueryNodes()) == q.K
}

// randomTW2 builds a random connected treewidth-2 query from glued cycles
// and pendant paths (mirrors the generator used in the solver tests).
func randomTW2(rng *rand.Rand) *query.Graph {
	next := 0
	var edges [][2]int
	newCycle := func(attach int) int {
		l := 3 + rng.Intn(4)
		first := attach
		if first < 0 {
			first = next
			next++
		}
		prev := first
		for i := 1; i < l; i++ {
			edges = append(edges, [2]int{prev, next})
			prev = next
			next++
		}
		edges = append(edges, [2]int{prev, first})
		return first
	}
	base := newCycle(-1)
	for rng.Intn(2) == 0 && next < 8 {
		if rng.Intn(2) == 0 {
			newCycle(base)
		} else {
			prev := base
			for i := 0; i < 1+rng.Intn(2); i++ {
				edges = append(edges, [2]int{prev, next})
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
		return query.Cycle(5)
	}
	return q
}

// Theta and diamond shapes exercise cycles sharing two vertices.
func TestThetaAndDiamond(t *testing.T) {
	theta := query.FromEdges("theta", 5, [][2]int{
		{0, 2}, {2, 1}, {0, 3}, {3, 1}, {0, 4}, {4, 1},
	})
	diamond := query.FromEdges("diamond", 4, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2},
	})
	for _, q := range []*query.Graph{theta, diamond} {
		trees := mustEnumerate(t, q)
		for _, tr := range trees {
			checkTree(t, tr)
		}
	}
}

// Enumerate marks a block whose subquery has an automorphism that swaps its
// two boundary nodes (Block.Mirrored). In brain3, an 8-cycle and a 4-cycle
// sharing edge (0,1), whichever cycle is the child is marked: either, read
// from 1 round to 0, is itself read from 0 round to 1. With a tail on node
// 0, a child that holds the tail has boundary nodes of degrees 3 and 2 in
// its subquery and is not marked; one that leaves it to the root still is.
// A block with fewer than two boundary nodes is never marked.
func TestMirroredMark(t *testing.T) {
	brain3 := query.MustByName("brain3")
	tailed := query.FromEdges("brain3-tailed", 11, append(brain3.Edges(), [2]int{0, 10}))
	for _, q := range []*query.Graph{brain3, tailed} {
		marked, unmarked := 0, 0
		for _, tr := range mustEnumerate(t, q) {
			for _, b := range tr.Blocks {
				want := len(b.Boundary) == 2 && !slices.Contains(b.SubqueryNodes(), 10)
				if b.Mirrored != want {
					t.Errorf("%s, tree %s: block %v (subquery %v) marked %v, want %v", q.Name, tr.Encode(), b, b.SubqueryNodes(), b.Mirrored, want)
				}
				if len(b.Boundary) == 2 && b.Mirrored {
					marked++
				} else if len(b.Boundary) == 2 {
					unmarked++
				}
			}
		}
		if marked == 0 || q == tailed && unmarked == 0 {
			t.Errorf("%s: %d two-boundary blocks marked, %d not; the test needs both kinds", q.Name, marked, unmarked)
		}
	}
}
