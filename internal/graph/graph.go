// Package graph implements the large data graph substrate: a compact
// CSR (compressed sparse row) adjacency structure, the degree-based total
// order used by the DB algorithm (§5.1), summary statistics (Table 1), and
// edge-list I/O.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// NoVertex is the sentinel for "no vertex" in table keys and APIs.
const NoVertex = ^uint32(0)

// Graph is an undirected simple data graph over vertices 0..N-1 stored in
// CSR form. Neighbor lists are sorted. The structure is immutable after
// construction and safe for concurrent readers.
type Graph struct {
	Name string
	n    int
	off  []int64  // len n+1; neighbor range of v is nbr[off[v]:off[v+1]]
	nbr  []uint32 // concatenated sorted neighbor lists

	// rank[v] is v's position in the degree-based total order of §5.1:
	// vertices sorted by (degree, id) increasing. rank[u] > rank[v] means
	// "u ≻ v" — u is higher than v.
	rank []int32
	// maxDeg is the largest degree, the degree of the vertex ranked last;
	// it is derived with rank.
	maxDeg int

	// fp memoizes the structural Fingerprint (wire.go).
	fpOnce sync.Once
	fp     uint64
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int64 { return int64(len(g.nbr)) / 2 }

// Neighbors returns the sorted neighbor list of v. Callers must not modify it.
func (g *Graph) Neighbors(v uint32) []uint32 { return g.nbr[g.off[v]:g.off[v+1]] }

// ArcOffset returns where v's neighbour list starts among the graph's
// 2·M() arcs: an array with one slot per arc holds v's at
// [ArcOffset(v), ArcOffset(v)+Degree(v)).
func (g *Graph) ArcOffset(v uint32) int64 { return g.off[v] }

// Degree returns the degree of v.
func (g *Graph) Degree(v uint32) int { return int(g.off[v+1] - g.off[v]) }

// HasEdge reports whether (u,v) is an edge, by binary search.
func (g *Graph) HasEdge(u, v uint32) bool {
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

// Rank returns v's position in the degree-based total order (§5.1):
// vertices are sorted by increasing degree, ties broken by placing the
// smaller id first. Higher rank = "higher" vertex.
func (g *Graph) Rank(v uint32) int32 { return g.rank[v] }

// Higher reports u ≻ v in the degree-based total order.
func (g *Graph) Higher(u, v uint32) bool { return g.rank[u] > g.rank[v] }

// MaxDegree returns the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int { return g.maxDeg }

// AvgDegree returns the average vertex degree.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(len(g.nbr)) / float64(g.n)
}

// DegreeHistogram returns counts[j] = number of vertices whose degree d
// satisfies 2^j ≤ d < 2^(j+1), with counts[0] also including degree 0..1.
// Used by the power-law experiments (§9–§10).
func (g *Graph) DegreeHistogram() []int64 {
	var counts []int64
	for v := 0; v < g.n; v++ {
		d := g.Degree(uint32(v))
		j := 0
		for 1<<(j+1) <= d {
			j++
		}
		for len(counts) <= j {
			counts = append(counts, 0)
		}
		counts[j]++
	}
	return counts
}

// Stats summarizes a graph in the shape of the paper's Table 1.
type Stats struct {
	Name   string
	Nodes  int
	Edges  int64
	AvgDeg float64
	MaxDeg int
}

// Stats returns the Table 1 summary row for g.
func (g *Graph) Stats() Stats {
	return Stats{Name: g.Name, Nodes: g.n, Edges: g.M(), AvgDeg: g.AvgDegree(), MaxDeg: g.MaxDegree()}
}

func (s Stats) String() string {
	return fmt.Sprintf("%-14s %9d nodes %10d edges  avg %5.1f  max %6d",
		s.Name, s.Nodes, s.Edges, s.AvgDeg, s.MaxDeg)
}

// Builder accumulates edges and produces an immutable Graph. Self-loops are
// dropped and duplicate edges are merged; edges may be added in any order.
type Builder struct {
	Name string
	n    int
	arcs []uint64 // u<<32 | v, each edge both ways
}

// NewBuilder returns a Builder for a graph with at least n vertices.
func NewBuilder(name string, n int) *Builder { return &Builder{Name: name, n: n} }

// AddEdge records the undirected edge (u,v). Self-loops are ignored.
// The vertex count grows to cover u and v if needed.
func (b *Builder) AddEdge(u, v uint32) {
	if u == v {
		return
	}
	b.n = max(b.n, int(u)+1, int(v)+1)
	b.arcs = append(b.arcs, uint64(u)<<32|uint64(v), uint64(v)<<32|uint64(u))
}

// edges returns how many distinct edges have been added so far. Nothing
// it allocates depends on the vertex count.
func (b *Builder) edges() int {
	slices.Sort(b.arcs)
	b.arcs = slices.Compact(b.arcs)
	return len(b.arcs) / 2
}

// Build finalizes the graph: counting-sorts the arcs by source into CSR,
// sorts each neighbour list, drops duplicates, and precomputes the
// degree-based order.
func (b *Builder) Build() *Graph {
	g := &Graph{Name: b.Name, n: b.n, off: make([]int64, b.n+1)}
	for _, a := range b.arcs {
		g.off[a>>32+1]++
	}
	for v := 0; v < b.n; v++ {
		g.off[v+1] += g.off[v]
	}
	nbr, at := make([]uint32, len(b.arcs)), slices.Clone(g.off[:b.n])
	for _, a := range b.arcs {
		nbr[at[a>>32]] = uint32(a)
		at[a>>32]++
	}
	out := nbr[:0] // each list moves down over the duplicates dropped before it
	for v := 0; v < b.n; v++ {
		ns := nbr[g.off[v]:g.off[v+1]]
		slices.Sort(ns)
		g.off[v] = int64(len(out))
		out = append(out, slices.Compact(ns)...)
	}
	g.off[b.n], g.nbr = int64(len(out)), out
	g.computeRank()
	return g
}

func (g *Graph) computeRank() {
	order := make([]uint32, g.n)
	for v := range order {
		order[v] = uint32(v)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := g.Degree(order[i]), g.Degree(order[j])
		if di != dj {
			return di < dj
		}
		return order[i] < order[j]
	})
	g.rank = make([]int32, g.n)
	for pos, v := range order {
		g.rank[v] = int32(pos)
	}
	g.maxDeg = 0
	if g.n > 0 {
		g.maxDeg = g.Degree(order[g.n-1])
	}
}

// FromEdges builds a graph on n vertices from an explicit edge list;
// convenient in tests and examples.
func FromEdges(name string, n int, edges [][2]uint32) *Graph {
	b := NewBuilder(name, n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}
