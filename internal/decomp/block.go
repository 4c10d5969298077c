// Package decomp builds decomposition trees for treewidth-2 queries
// (paper §4.1): the query is reduced by repeatedly contracting blocks —
// leaf edges and contractible cycles — each contraction adding a tree node
// whose children are the blocks previously recorded as annotations on the
// contracted nodes/edges. The package enumerates all decomposition trees of
// a query and implements the plan-selection heuristic of §6.
package decomp

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/query"
)

// BlockKind distinguishes the three node types of a decomposition tree.
type BlockKind int

const (
	// LeafEdge is an edge (a,b) whose endpoint b had degree 1 at
	// contraction time; a is its boundary node.
	LeafEdge BlockKind = iota
	// CycleBlock is a contractible cycle: induced, with ≤ 2 boundary nodes.
	CycleBlock
	// SingletonRoot is the residual single node left when contraction
	// terminates; its annotation (if any) is its only child.
	SingletonRoot
)

func (k BlockKind) String() string {
	switch k {
	case LeafEdge:
		return "leaf"
	case CycleBlock:
		return "cycle"
	case SingletonRoot:
		return "singleton"
	}
	return "?"
}

// Block is one node of a decomposition tree. It records the query nodes of
// the block, the boundary nodes (shared with the rest of the query), and
// which child block annotates each node and edge.
//
// For CycleBlock, Nodes lists the cycle in cyclic order and EdgeAnn[i]
// annotates the edge (Nodes[i], Nodes[(i+1) mod L]); nil means the edge is
// an original query edge (the paper's implicit "graph edge" block B_G).
// For LeafEdge, Nodes is [a, b] with a the boundary node and EdgeAnn[0]
// the annotation of edge (a,b). For SingletonRoot, Nodes is [a].
type Block struct {
	ID       int
	Kind     BlockKind
	Nodes    []int
	Boundary []int // 0, 1 or 2 query nodes, ascending
	NodeAnn  []*Block
	EdgeAnn  []*Block
	Children []*Block
	// Mirrored marks a block with two boundary nodes whose subquery has an
	// automorphism that swaps them: every match with the boundary nodes at
	// (a, b) is one at (b, a) read through it, so the block's table holds
	// (a, b, S) and (b, a, S) with one count, and its two groupings (one
	// from each boundary node) hold the same entries. Enumerate sets it; a
	// tree built by hand carries no mark.
	Mirrored bool
}

// Len returns the number of nodes in the block itself (cycle length, 2 for
// a leaf edge, 1 for a singleton).
func (b *Block) Len() int { return len(b.Nodes) }

// SubqueryNodes returns the node set of the subquery SQ(B) represented by
// the block: the block's own nodes plus all descendants' (§4.2).
func (b *Block) SubqueryNodes() []int {
	set := map[int]bool{}
	var walk func(x *Block)
	walk = func(x *Block) {
		for _, n := range x.Nodes {
			set[n] = true
		}
		for _, c := range x.Children {
			walk(c)
		}
	}
	walk(b)
	out := make([]int, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// encode returns a canonical recursive string encoding of the block, used
// for deduplicating decomposition trees.
func (b *Block) encode() string {
	var sb strings.Builder
	b.encodeTo(&sb)
	return sb.String()
}

func (b *Block) encodeTo(sb *strings.Builder) {
	switch b.Kind {
	case LeafEdge:
		sb.WriteString("L[")
	case CycleBlock:
		sb.WriteString("C[")
	case SingletonRoot:
		sb.WriteString("S[")
	}
	for i, n := range b.Nodes {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(sb, "%d", n)
		if b.NodeAnn[i] != nil {
			sb.WriteByte('@')
			b.NodeAnn[i].encodeTo(sb)
		}
	}
	sb.WriteByte(';')
	for i, e := range b.EdgeAnn {
		if e != nil {
			fmt.Fprintf(sb, "%d", i)
			sb.WriteByte('@')
			e.encodeTo(sb)
		}
	}
	sb.WriteString(";b")
	for _, n := range b.Boundary {
		fmt.Fprintf(sb, ",%d", n)
	}
	sb.WriteByte(']')
}

// String renders the block for diagnostics: kind, nodes, boundary.
func (b *Block) String() string {
	return fmt.Sprintf("%s%v bnd%v", b.Kind, b.Nodes, b.Boundary)
}

// Tree is a complete decomposition tree for a query.
type Tree struct {
	Query  *query.Graph
	Root   *Block
	Blocks []*Block // postorder: children precede parents; Root last
}

// Score is the plan-quality vector, compared lexicographically (smaller is
// better). The paper's §6 factors are, in decreasing importance, (i) the
// longest cycle block, (ii) total boundary nodes, (iii) total annotations.
// We lead with a quantitative refinement that the paper's own cost model
// implies: the DB solver performs one split per cycle position, and each
// split walks the cycle joining its annotated children — and a child's
// table mass grows with the size of the subquery it represents. A cycle
// block therefore costs ≈ L·(L + Σ (child subquery size − 1) + boundary
// nodes). The worst
// block dominates (its tables are the largest), then the total, then the
// paper's original tie-breakers.
type Score struct {
	MaxCycleWork   int // max over cycle blocks of Len·(Len + weighted anns)
	TotalCycleWork int // Σ over cycle blocks of the same
	MaxBlockAnns   int // max annotations on any single block (join fan-in)
	LongestCycle   int // paper factor (i)
	BoundarySum    int // paper factor (ii)
	Annotations    int // paper factor (iii)
}

// Less orders scores lexicographically.
func (s Score) Less(t Score) bool {
	if s.MaxCycleWork != t.MaxCycleWork {
		return s.MaxCycleWork < t.MaxCycleWork
	}
	if s.TotalCycleWork != t.TotalCycleWork {
		return s.TotalCycleWork < t.TotalCycleWork
	}
	if s.MaxBlockAnns != t.MaxBlockAnns {
		return s.MaxBlockAnns < t.MaxBlockAnns
	}
	if s.LongestCycle != t.LongestCycle {
		return s.LongestCycle < t.LongestCycle
	}
	if s.BoundarySum != t.BoundarySum {
		return s.BoundarySum < t.BoundarySum
	}
	return s.Annotations < t.Annotations
}

// Score computes the plan-quality vector of the tree.
func (t *Tree) Score() Score {
	var s Score
	for _, b := range t.Blocks {
		anns, weighted := 0, 0
		for _, a := range b.NodeAnn {
			if a != nil {
				anns++
				weighted += len(a.SubqueryNodes()) - 1
			}
		}
		for _, a := range b.EdgeAnn {
			if a != nil {
				anns++
				weighted += len(a.SubqueryNodes()) - 1
			}
		}
		if b.Kind == CycleBlock {
			// Two-boundary cycles materialize pair-keyed tables; a root
			// cycle only sums. Charge each boundary node as two extra
			// join position.
			work := b.Len() * (b.Len() + weighted + len(b.Boundary))
			s.TotalCycleWork += work
			if work > s.MaxCycleWork {
				s.MaxCycleWork = work
			}
			if b.Len() > s.LongestCycle {
				s.LongestCycle = b.Len()
			}
		}
		if anns > s.MaxBlockAnns {
			s.MaxBlockAnns = anns
		}
		s.BoundarySum += len(b.Boundary)
		s.Annotations += anns
	}
	return s
}

// Encode returns the canonical encoding of the whole tree.
func (t *Tree) Encode() string { return t.Root.encode() }

// String renders the tree with one block per line, children indented.
func (t *Tree) String() string {
	var sb strings.Builder
	var walk func(b *Block, depth int)
	walk = func(b *Block, depth int) {
		fmt.Fprintf(&sb, "%s%s\n", strings.Repeat("  ", depth), b)
		for _, c := range b.Children {
			walk(c, depth+1)
		}
	}
	walk(t.Root, 0)
	return sb.String()
}

// deepClone copies the block tree, preserving the aliasing between
// Children and the non-nil NodeAnn/EdgeAnn entries.
func (b *Block) deepClone() *Block {
	seen := map[*Block]*Block{}
	var cp func(x *Block) *Block
	cp = func(x *Block) *Block {
		if x == nil {
			return nil
		}
		if d, ok := seen[x]; ok {
			return d
		}
		d := &Block{
			Kind:     x.Kind,
			Nodes:    append([]int(nil), x.Nodes...),
			Boundary: append([]int(nil), x.Boundary...),
			Mirrored: x.Mirrored,
			NodeAnn:  make([]*Block, len(x.NodeAnn)),
			EdgeAnn:  make([]*Block, len(x.EdgeAnn)),
		}
		seen[x] = d
		for i, a := range x.NodeAnn {
			d.NodeAnn[i] = cp(a)
		}
		for i, a := range x.EdgeAnn {
			d.EdgeAnn[i] = cp(a)
		}
		for _, c := range x.Children {
			d.Children = append(d.Children, cp(c))
		}
		return d
	}
	return cp(b)
}

// MarkMirrored sets every block's Mirrored mark from the tree's query.
// Enumerate calls it on the trees it lists; a process that rebuilds a
// listed tree from another form calls it again.
func (t *Tree) MarkMirrored() {
	for _, b := range t.Blocks {
		b.Mirrored = swapsBoundary(t.Query, b)
	}
}

// swapsBoundary reports whether the subgraph of q induced by b's subquery
// nodes has an automorphism that swaps b's two boundary nodes: the
// backtracking of query.Graph.Automorphisms, the boundary nodes placed
// first, each onto the other. An edge between the boundary nodes maps to
// itself, so whether the subquery holds it does not matter.
func swapsBoundary(q *query.Graph, b *Block) bool {
	if len(b.Boundary) != 2 {
		return false
	}
	nodes := slices.Clone(b.Boundary)
	for _, n := range b.SubqueryNodes() {
		if !slices.Contains(b.Boundary, n) {
			nodes = append(nodes, n)
		}
	}
	deg := make(map[int]int, len(nodes)) // degree in the induced subgraph
	for _, x := range nodes {
		for _, y := range nodes {
			if q.HasEdge(x, y) {
				deg[x]++
			}
		}
	}
	img := make([]int, len(nodes))
	used := make(map[int]bool, len(nodes))
	var place func(i int) bool
	place = func(i int) bool {
		if i == len(nodes) {
			return true
		}
		cands := nodes[2:]
		if i < 2 {
			cands = nodes[1-i : 2-i]
		}
		for _, v := range cands {
			if used[v] || deg[v] != deg[nodes[i]] {
				continue
			}
			ok := true
			for j := 0; j < i && ok; j++ {
				ok = q.HasEdge(nodes[i], nodes[j]) == q.HasEdge(v, img[j])
			}
			if ok {
				img[i], used[v] = v, true
				if place(i + 1) {
					return true
				}
				used[v] = false
			}
		}
		return false
	}
	return place(0)
}

// assignIDs numbers blocks in postorder and fills t.Blocks.
func (t *Tree) assignIDs() {
	t.Blocks = t.Blocks[:0]
	var walk func(b *Block)
	walk = func(b *Block) {
		for _, c := range b.Children {
			walk(c)
		}
		b.ID = len(t.Blocks)
		t.Blocks = append(t.Blocks, b)
	}
	walk(t.Root)
}
