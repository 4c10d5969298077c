package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func triangleWithTail() *Graph {
	return FromEdges("tri", 5, [][2]uint32{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}})
}

func TestBasic(t *testing.T) {
	g := triangleWithTail()
	if g.N() != 5 || g.M() != 5 {
		t.Fatalf("N=%d M=%d, want 5/5", g.N(), g.M())
	}
	if g.Degree(2) != 3 || g.Degree(4) != 1 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(2), g.Degree(4))
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 3) {
		t.Fatal("HasEdge wrong")
	}
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
	if g.AvgDegree() != 2.0 {
		t.Fatalf("AvgDegree = %f", g.AvgDegree())
	}
}

func TestDuplicatesAndSelfLoops(t *testing.T) {
	b := NewBuilder("d", 3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(0, 1)
	b.AddEdge(2, 2)
	g := b.Build()
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1 after dedupe", g.M())
	}
	if g.Degree(2) != 0 {
		t.Fatalf("self-loop not dropped: deg(2)=%d", g.Degree(2))
	}
}

func TestRankOrder(t *testing.T) {
	g := triangleWithTail()
	// Degrees: 0:2 1:2 2:3 3:2 4:1 → order by (deg,id): 4,0,1,3,2.
	want := []uint32{4, 0, 1, 3, 2}
	for pos, v := range want {
		if g.Rank(v) != int32(pos) {
			t.Errorf("Rank(%d) = %d, want %d", v, g.Rank(v), pos)
		}
	}
	if !g.Higher(2, 4) || g.Higher(4, 2) || g.Higher(0, 0) {
		t.Fatal("Higher comparisons wrong")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := triangleWithTail()
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadEdgeList("rt", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatalf("round trip: N=%d M=%d", h.N(), h.M())
	}
	for v := 0; v < g.N(); v++ {
		a, b := g.Neighbors(uint32(v)), h.Neighbors(uint32(v))
		if len(a) != len(b) {
			t.Fatalf("vertex %d: neighbor counts differ", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d: neighbors differ", v)
			}
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeList("bad", strings.NewReader("1 x\n")); err == nil {
		t.Fatal("expected parse error for non-numeric id")
	}
	if _, err := ReadEdgeList("bad", strings.NewReader("7\n")); err == nil {
		t.Fatal("expected parse error for missing endpoint")
	}
	g, err := ReadEdgeList("ok", strings.NewReader("# comment\n% also\n\n0 1\n"))
	if err != nil || g.M() != 1 {
		t.Fatalf("comments/blank lines mishandled: %v %v", g, err)
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := triangleWithTail()
	h := g.DegreeHistogram()
	// degrees 2,2,3,2,1 → bucket0 (deg<2): 1 vertex; bucket1 (2..3): 4.
	if len(h) != 2 || h[0] != 1 || h[1] != 4 {
		t.Fatalf("histogram = %v", h)
	}
}

// Property: CSR construction matches a naive adjacency-set construction on
// random multigraph input with self-loops and duplicates.
func TestQuickBuildMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		b := NewBuilder("q", n)
		naive := make([]map[uint32]bool, n)
		for i := range naive {
			naive[i] = map[uint32]bool{}
		}
		for e := 0; e < 80; e++ {
			u := uint32(rng.Intn(n))
			v := uint32(rng.Intn(n))
			b.AddEdge(u, v)
			if u != v {
				naive[u][v] = true
				naive[v][u] = true
			}
		}
		g := b.Build()
		for v := 0; v < n; v++ {
			ns := g.Neighbors(uint32(v))
			if len(ns) != len(naive[v]) {
				return false
			}
			if !sort.SliceIsSorted(ns, func(i, j int) bool { return ns[i] < ns[j] }) {
				return false
			}
			for _, w := range ns {
				if !naive[v][w] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the rank array is a permutation consistent with the (degree,id)
// total order, and MaxDegree, derived with it, is the largest degree, also
// in a graph decoded from the wire.
func TestQuickRankIsTotalOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		b := NewBuilder("q", n)
		for e := 0; e < 3*n; e++ {
			b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
		}
		g := b.Build()
		most := 0
		for v := 0; v < n; v++ {
			most = max(most, g.Degree(uint32(v)))
		}
		var h Graph
		if w, err := g.GobEncode(); err != nil || h.GobDecode(w) != nil || g.MaxDegree() != most || h.MaxDegree() != most {
			return false
		}
		seen := make([]bool, n)
		for v := 0; v < n; v++ {
			r := g.Rank(uint32(v))
			if r < 0 || int(r) >= n || seen[r] {
				return false
			}
			seen[r] = true
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				du, dv := g.Degree(uint32(u)), g.Degree(uint32(v))
				wantHigher := du > dv || (du == dv && u > v)
				if g.Higher(uint32(u), uint32(v)) != wantHigher {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// An edge list whose ids are far sparser than its edges is refused before
// the graph is sized by its max id, duplicate lines or not; one just inside
// the bound is read.
func TestReadEdgeListRefusesSparseIDs(t *testing.T) {
	if _, err := ReadEdgeList("far", strings.NewReader("0 4294967294\n")); err == nil {
		t.Fatal("a one-edge list naming vertex 2³²−2 was read")
	}
	far := strings.Repeat(fmt.Sprintf("0 %d\n", spareIDs+idsPerEdge), 100)
	if _, err := ReadEdgeList("dup", strings.NewReader(far)); err == nil {
		t.Fatal("a hundred copies of one edge raised the sparseness bound")
	}
	near := fmt.Sprintf("0 %d\n", spareIDs+idsPerEdge-1)
	if g, err := ReadEdgeList("near", strings.NewReader(near)); err != nil || g.N() != spareIDs+idsPerEdge {
		t.Fatalf("an edge list at the bound: %v", err)
	}
}

// FuzzGraphEdgeList feeds hostile bytes to ReadEdgeList. Nothing may panic
// or allocate by an id the list does not earn, and every graph read must
// survive WriteEdgeList and a second read unchanged.
func FuzzGraphEdgeList(f *testing.F) {
	for _, seed := range []string{
		"0 1\n1 2\n2 0\n2 3\n3 4\n",
		"# comment\n% also\n\n0 1\n",
		"5 5\n1 2 extra fields\n",
		"0 65600\n0 65600\n",
		"1 x\n",
		"7\n",
		"0 4294967295\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadEdgeList("fuzz", bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatal(err)
		}
		h, err := ReadEdgeList("again", &buf)
		if err != nil {
			t.Fatalf("a graph read once is refused on its second read: %v", err)
		}
		if h.N() != g.N() || h.M() != g.M() {
			t.Fatalf("round trip: %d vertices, %d edges; read first as %d, %d", h.N(), h.M(), g.N(), g.M())
		}
		for v := uint32(0); int(v) < g.N(); v++ {
			if !slices.Equal(g.Neighbors(v), h.Neighbors(v)) {
				t.Fatalf("vertex %d: neighbours %v after the round trip, %v before", v, h.Neighbors(v), g.Neighbors(v))
			}
		}
	})
}
