package query

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestCatalogWellFormed(t *testing.T) {
	qs := Catalog()
	if len(qs) != 10 {
		t.Fatalf("catalog size = %d, want 10", len(qs))
	}
	sizes := map[string]int{
		"dros": 7, "ecoli1": 8, "ecoli2": 9, "brain1": 8, "brain2": 9,
		"brain3": 10, "glet1": 5, "glet2": 5, "wiki": 7, "youtube": 6,
	}
	for _, q := range qs {
		if q.K != sizes[q.Name] {
			t.Errorf("%s: K = %d, want %d", q.Name, q.K, sizes[q.Name])
		}
		if !q.Connected() {
			t.Errorf("%s: not connected", q.Name)
		}
		if !q.TreewidthAtMost2() {
			t.Errorf("%s: treewidth > 2", q.Name)
		}
		if q.IsTree() {
			t.Errorf("%s: is a tree; catalog queries must contain cycles", q.Name)
		}
	}
}

func TestSatellite(t *testing.T) {
	q := MustByName("satellite")
	if q.K != 11 || q.M() != 14 {
		t.Fatalf("satellite: K=%d M=%d, want 11/14", q.K, q.M())
	}
	if !q.TreewidthAtMost2() || !q.Connected() {
		t.Fatal("satellite must be connected treewidth-2")
	}
	// Spot-check the Figure 2 structure: f (node 5) has degree 4 (a,g,i,h).
	if q.Degree(5) != 4 {
		t.Fatalf("satellite: deg(f) = %d, want 4", q.Degree(5))
	}
}

func TestTreewidthRecognition(t *testing.T) {
	cases := []struct {
		q    *Graph
		want bool
	}{
		{Cycle(3), true},
		{Cycle(8), true},
		{PathGraph(6), true},
		{Star(7), true},
		{BinaryTree(12), true},
		{k4(), false},
		{FromEdges("k4minus", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}), true},
	}
	for _, c := range cases {
		if got := c.q.TreewidthAtMost2(); got != c.want {
			t.Errorf("%s: TreewidthAtMost2 = %v, want %v", c.q.Name, got, c.want)
		}
	}
}

func k4() *Graph {
	return FromEdges("k4", 4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
}

func TestAutomorphisms(t *testing.T) {
	cases := []struct {
		q    *Graph
		want uint64
	}{
		{Cycle(3), 6},  // dihedral group of the triangle
		{Cycle(5), 10}, // dihedral group D5
		{Cycle(8), 16}, // D8
		{PathGraph(4), 2},
		{Star(5), 24}, // 4! leaf permutations
		{k4(), 24},
		{PathGraph(1), 1},
	}
	for _, c := range cases {
		if got := c.q.Automorphisms(); got != c.want {
			t.Errorf("%s: aut = %d, want %d", c.q.Name, got, c.want)
		}
	}
}

func TestIsTree(t *testing.T) {
	if !PathGraph(5).IsTree() || !Star(6).IsTree() || !BinaryTree(12).IsTree() {
		t.Fatal("trees not recognized")
	}
	if Cycle(4).IsTree() {
		t.Fatal("cycle misclassified as tree")
	}
}

func TestAddEdgeIdempotent(t *testing.T) {
	g := New("t", 3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge not symmetric")
	}
}

func TestCloneIndependent(t *testing.T) {
	g := MustByName("glet1")
	h := g.Clone()
	h.AddEdge(2, 4)
	if g.HasEdge(2, 4) {
		t.Fatal("Clone shares state with original")
	}
	if g.M()+1 != h.M() {
		t.Fatalf("M mismatch: %d vs %d", g.M(), h.M())
	}
}

// Property: cycles of length l have l edges, are treewidth-2 (not trees),
// and have 2l automorphisms.
func TestQuickCycles(t *testing.T) {
	f := func(raw uint8) bool {
		l := 3 + int(raw%10)
		c := Cycle(l)
		return c.M() == l && c.TreewidthAtMost2() && !c.IsTree() &&
			c.Automorphisms() == uint64(2*l) && c.Connected()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every node's neighbor list is sorted and consistent with HasEdge.
func TestQuickNeighborConsistency(t *testing.T) {
	for _, q := range append(Catalog(), MustByName("satellite")) {
		for v := 0; v < q.K; v++ {
			ns := q.Neighbors(v)
			for i, w := range ns {
				if i > 0 && ns[i-1] >= w {
					t.Fatalf("%s: neighbors of %d not strictly sorted: %v", q.Name, v, ns)
				}
				if !q.HasEdge(v, w) {
					t.Fatalf("%s: neighbor %d-%d not an edge", q.Name, v, w)
				}
			}
			if q.Degree(v) != len(ns) {
				t.Fatalf("%s: degree mismatch at %d", q.Name, v)
			}
		}
	}
}

func TestReadEdgeList(t *testing.T) {
	q, err := ReadEdgeList("tri", strings.NewReader("# triangle\n0 1\n1 2\n2 0\n"))
	if err != nil || q.K != 3 || q.M() != 3 {
		t.Fatalf("triangle: %v %v", q, err)
	}
	if !q.TreewidthAtMost2() {
		t.Fatal("triangle misclassified")
	}
	for _, bad := range []string{"", "0 0\n", "x y\n", "-1 2\n", "1\n"} {
		if _, err := ReadEdgeList("bad", strings.NewReader(bad)); err == nil {
			t.Errorf("input %q accepted", bad)
		}
	}
}

// FuzzQueryEdgeList feeds hostile bytes to ReadEdgeList and so to
// FromEdgesChecked. Nothing may panic or size an adjacency matrix past
// MaxK, and every query read must round-trip through its edges: written
// back as an edge list and read again, and rebuilt by FromEdges, it has the
// same nodes and the same edges in the same order.
func FuzzQueryEdgeList(f *testing.F) {
	for _, seed := range []string{
		"# a triangle\n0 1\n1 2\n0 2\n",
		"0 1\n1 2\n2 3\n3 0\n0 2\n",
		"0 1\n0 1\n1 0\n",
		"0 15\n",
		"0 16\n",
		"0 1000000000\n",
		"3 3\n",
		"-1 2\n",
		"0 x\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := ReadEdgeList("fuzz", strings.NewReader(string(data)))
		if err != nil {
			return
		}
		if q.K < 2 || q.K > MaxK || q.M() == 0 {
			t.Fatalf("accepted a query of %d nodes and %d edges", q.K, q.M())
		}
		var text strings.Builder
		for _, e := range q.Edges() {
			fmt.Fprintf(&text, "%d %d\n", e[0], e[1])
		}
		again, err := ReadEdgeList("again", strings.NewReader(text.String()))
		if err != nil {
			t.Fatalf("its edges %q are refused: %v", text.String(), err)
		}
		for _, r := range []*Graph{again, FromEdges("rebuilt", q.K, q.Edges())} {
			if r.K != q.K || !slices.Equal(r.Edges(), q.Edges()) {
				t.Fatalf("%s: %d nodes, edges %v; read as %d nodes, edges %v", r.Name, r.K, r.Edges(), q.K, q.Edges())
			}
		}
	})
}
