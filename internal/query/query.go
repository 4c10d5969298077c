// Package query represents the small query (template) graphs whose
// occurrences are counted in a large data graph, together with the
// benchmark catalog used throughout the paper's evaluation (Figure 8),
// automorphism counting (§2) and treewidth-≤2 recognition.
package query

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// MaxK is the most nodes a query the solver counts may have: a signature
// is a set of colours, one per node, in 32 bits, and decomposition (decomp)
// and the join tables (core) are sized for at most 16.
const MaxK = 16

// Graph is a small simple undirected query graph. Nodes are 0..K-1.
// Queries are tiny (the paper's largest has 11 nodes), so adjacency is a
// dense matrix plus an edge list; all operations favour clarity.
type Graph struct {
	Name string
	K    int      // number of nodes
	adj  [][]bool // K×K adjacency matrix
	nbr  [][]int  // sorted neighbor lists
	edge [][2]int // edge list, each with a < b
}

// New returns an empty query graph on k nodes.
func New(name string, k int) *Graph {
	g := &Graph{Name: name, K: k}
	g.adj = make([][]bool, k)
	for i := range g.adj {
		g.adj[i] = make([]bool, k)
	}
	g.nbr = make([][]int, k)
	return g
}

// FromEdges builds a query graph on k nodes from an edge list.
// It panics on self-loops or out-of-range endpoints (queries are
// program-defined constants; a malformed one is a programming error).
func FromEdges(name string, k int, edges [][2]int) *Graph {
	g := New(name, k)
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// FromEdgesChecked is FromEdges for untrusted input: it validates instead
// of panicking, derives k as the largest node id plus one, and rejects
// node ids above maxID *before* the k×k adjacency matrix is allocated (so
// a hostile edge list cannot force a huge allocation). maxID ≤ 0 means
// unbounded.
func FromEdgesChecked(name string, edges [][2]int, maxID int) (*Graph, error) {
	k := 0
	for _, e := range edges {
		a, b := e[0], e[1]
		if a < 0 || b < 0 {
			return nil, fmt.Errorf("query %s: negative node id in (%d,%d)", name, a, b)
		}
		if a == b {
			return nil, fmt.Errorf("query %s: self-loop at %d", name, a)
		}
		if maxID > 0 && (a > maxID || b > maxID) {
			big := a
			if b > big {
				big = b
			}
			return nil, fmt.Errorf("query %s: node id %d too large (max %d)", name, big, maxID)
		}
		if a >= k {
			k = a + 1
		}
		if b >= k {
			k = b + 1
		}
	}
	if k == 0 {
		return nil, fmt.Errorf("query %s: no edges", name)
	}
	return FromEdges(name, k, edges), nil
}

// AddEdge inserts the undirected edge (a,b). Duplicate insertions are
// idempotent.
func (g *Graph) AddEdge(a, b int) {
	if a == b {
		panic(fmt.Sprintf("query %s: self-loop at %d", g.Name, a))
	}
	if a < 0 || b < 0 || a >= g.K || b >= g.K {
		panic(fmt.Sprintf("query %s: edge (%d,%d) out of range", g.Name, a, b))
	}
	if g.adj[a][b] {
		return
	}
	g.adj[a][b] = true
	g.adj[b][a] = true
	g.nbr[a] = insertSorted(g.nbr[a], b)
	g.nbr[b] = insertSorted(g.nbr[b], a)
	if a > b {
		a, b = b, a
	}
	g.edge = append(g.edge, [2]int{a, b})
}

func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// HasEdge reports whether (a,b) is an edge.
func (g *Graph) HasEdge(a, b int) bool { return g.adj[a][b] }

// Neighbors returns the sorted neighbor list of a. Callers must not modify it.
func (g *Graph) Neighbors(a int) []int { return g.nbr[a] }

// Degree returns the degree of node a.
func (g *Graph) Degree(a int) int { return len(g.nbr[a]) }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edge) }

// Edges returns the edge list (each edge once, with a < b).
// Callers must not modify it.
func (g *Graph) Edges() [][2]int { return g.edge }

// Connected reports whether the query graph is connected (true for K ≤ 1).
func (g *Graph) Connected() bool {
	if g.K <= 1 {
		return true
	}
	seen := make([]bool, g.K)
	stack := []int{0}
	seen[0] = true
	n := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.nbr[v] {
			if !seen[w] {
				seen[w] = true
				n++
				stack = append(stack, w)
			}
		}
	}
	return n == g.K
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	h := New(g.Name, g.K)
	for _, e := range g.edge {
		h.AddEdge(e[0], e[1])
	}
	return h
}

// String renders the query as "name(k): a-b a-c ...".
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(k=%d):", g.Name, g.K)
	for _, e := range g.edge {
		fmt.Fprintf(&b, " %d-%d", e[0], e[1])
	}
	return b.String()
}

// TreewidthAtMost2 reports whether the query has treewidth ≤ 2.
// A connected graph has treewidth ≤ 2 iff it can be reduced to a single
// vertex by repeatedly deleting vertices of degree ≤ 1 and contracting
// degree-2 vertices (adding the shortcut edge between their neighbors) —
// the classic series-parallel reduction.
func (g *Graph) TreewidthAtMost2() bool {
	// Work on a mutable adjacency-set copy.
	adj := make([]map[int]bool, g.K)
	alive := make([]bool, g.K)
	for v := 0; v < g.K; v++ {
		adj[v] = make(map[int]bool, len(g.nbr[v]))
		for _, w := range g.nbr[v] {
			adj[v][w] = true
		}
		alive[v] = true
	}
	remaining := g.K
	for {
		reduced := false
		for v := 0; v < g.K && remaining > 1; v++ {
			if !alive[v] {
				continue
			}
			switch len(adj[v]) {
			case 0, 1:
				for w := range adj[v] {
					delete(adj[w], v)
				}
				adj[v] = nil
				alive[v] = false
				remaining--
				reduced = true
			case 2:
				var ns []int
				for w := range adj[v] {
					ns = append(ns, w)
				}
				a, b := ns[0], ns[1]
				delete(adj[a], v)
				delete(adj[b], v)
				adj[a][b] = true
				adj[b][a] = true
				adj[v] = nil
				alive[v] = false
				remaining--
				reduced = true
			}
		}
		if remaining <= 1 {
			return true
		}
		if !reduced {
			return false
		}
	}
}

// IsTree reports whether the query is a connected acyclic graph
// (treewidth 1), the class handled by prior work (FASCIA).
func (g *Graph) IsTree() bool {
	return g.Connected() && g.M() == g.K-1
}

// Automorphisms returns aut(Q), the number of automorphisms of the query.
// Matches divided by aut(Q) gives the number of distinct subgraphs (§2).
// Uses backtracking with degree pruning; queries are tiny.
func (g *Graph) Automorphisms() uint64 {
	perm := make([]int, g.K)
	used := make([]bool, g.K)
	var count uint64
	var rec func(i int)
	rec = func(i int) {
		if i == g.K {
			count++
			return
		}
		for v := 0; v < g.K; v++ {
			if used[v] || g.Degree(v) != g.Degree(i) {
				continue
			}
			ok := true
			for j := 0; j < i; j++ {
				if g.adj[i][j] != g.adj[v][perm[j]] {
					ok = false
					break
				}
			}
			if ok {
				perm[i] = v
				used[v] = true
				rec(i + 1)
				used[v] = false
			}
		}
	}
	rec(0)
	return count
}

// ReadEdgeList parses a query graph from a whitespace edge list ("a b" per
// line, '#' comments allowed, nodes are 0-based integers). The node count
// is one more than the largest id seen, at most MaxK: a larger id is
// refused before the adjacency matrix is sized by it. Useful for counting
// user-supplied motifs via the CLI. Construction and semantic validation
// are FromEdgesChecked's; the per-line checks here exist only to attach
// line numbers, which matter when debugging a large motif file.
func ReadEdgeList(name string, r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	var edges [][2]int
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		var a, b int
		if _, err := fmt.Sscanf(text, "%d %d", &a, &b); err != nil {
			return nil, fmt.Errorf("query: %s:%d: want \"a b\", got %q", name, line, text)
		}
		if a < 0 || b < 0 {
			return nil, fmt.Errorf("query: %s:%d: negative node id", name, line)
		}
		if a == b {
			return nil, fmt.Errorf("query: %s:%d: self-loop at %d", name, line, a)
		}
		edges = append(edges, [2]int{a, b})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("query: reading %s: %v", name, err)
	}
	return FromEdgesChecked(name, edges, MaxK-1)
}
