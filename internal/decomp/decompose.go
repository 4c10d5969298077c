package decomp

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"strings"

	"repro/internal/query"
)

// maxTrees caps the decomposition trees Enumerate lists. The count grows
// factorially on a hub (a star of k nodes has 2·(k−1)! trees: star8 has
// 10 080, star9 80 640), while a catalog query has at most 31 and
// bintree12 has 352.
const maxTrees = 1 << 14

// ErrPlanSpace reports a query with more than maxTrees decomposition
// trees: listing them, let alone pricing them, would take minutes.
var ErrPlanSpace = errors.New("decomp: too many decomposition trees")

// Enumerate returns every distinct decomposition tree of the query, sorted
// by canonical encoding, or an error wrapping ErrPlanSpace past maxTrees.
// Distinct contraction orders that produce the same tree are deduplicated,
// and intermediate states are memoized (contraction of independent blocks
// commutes, so the state space is small even though the order space is
// factorial).
func Enumerate(q *query.Graph) ([]*Tree, error) {
	if q.K == 0 {
		return nil, fmt.Errorf("decomp: empty query")
	}
	if q.K > query.MaxK {
		return nil, fmt.Errorf("decomp: query %s has %d nodes; max %d", q.Name, q.K, query.MaxK)
	}
	if !q.Connected() {
		return nil, fmt.Errorf("decomp: query %s is not connected", q.Name)
	}
	if !q.TreewidthAtMost2() {
		return nil, fmt.Errorf("decomp: query %s has treewidth > 2", q.Name)
	}
	roots, ok := enumerate(newWork(q), map[string]map[string]*Block{})
	if !ok {
		return nil, fmt.Errorf("%w: %s has more than %d", ErrPlanSpace, q.Name, maxTrees)
	}
	// The roots are keyed by their encodings, which order the trees.
	encs := make([]string, 0, len(roots))
	for enc := range roots {
		encs = append(encs, enc)
	}
	sort.Strings(encs)
	trees := make([]*Tree, len(encs))
	for i, enc := range encs {
		// Enumeration memoizes and shares subtree blocks across trees;
		// deep-copy so each tree owns its blocks (IDs are per-tree).
		trees[i] = &Tree{Query: q, Root: roots[enc].deepClone()}
		trees[i].assignIDs()
	}
	if len(trees) == 0 {
		// Unreachable for connected treewidth-2 queries (Lemma 4.1).
		return nil, fmt.Errorf("decomp: no decomposition found for %s", q.Name)
	}
	return trees, nil
}

// work is the mutable query being contracted: alive nodes, edges with
// optional block annotations, and node annotations.
type work struct {
	alive   map[int]bool
	adj     map[int]map[int]*Block // adj[a][b] = edge annotation (nil = original edge)
	nodeAnn map[int]*Block
}

func newWork(q *query.Graph) *work {
	w := &work{
		alive:   make(map[int]bool, q.K),
		adj:     make(map[int]map[int]*Block, q.K),
		nodeAnn: make(map[int]*Block),
	}
	for v := 0; v < q.K; v++ {
		w.alive[v] = true
		w.adj[v] = make(map[int]*Block)
	}
	for _, e := range q.Edges() {
		w.adj[e[0]][e[1]] = nil
		w.adj[e[1]][e[0]] = nil
	}
	return w
}

func (w *work) clone() *work {
	c := &work{
		alive:   make(map[int]bool, len(w.alive)),
		adj:     make(map[int]map[int]*Block, len(w.adj)),
		nodeAnn: make(map[int]*Block, len(w.nodeAnn)),
	}
	for v := range w.alive {
		c.alive[v] = true
	}
	for v, m := range w.adj {
		cm := make(map[int]*Block, len(m))
		for u, ann := range m {
			cm[u] = ann
		}
		c.adj[v] = cm
	}
	for v, a := range w.nodeAnn {
		c.nodeAnn[v] = a
	}
	return c
}

// key serializes the state canonically; blocks are serialized recursively,
// so the key fully determines all future contraction outcomes.
func (w *work) key() string {
	var sb strings.Builder
	nodes := w.sortedAlive()
	for _, v := range nodes {
		fmt.Fprintf(&sb, "n%d", v)
		if a := w.nodeAnn[v]; a != nil {
			sb.WriteByte('@')
			a.encodeTo(&sb)
		}
		sb.WriteByte('|')
	}
	for _, v := range nodes {
		us := make([]int, 0, len(w.adj[v]))
		for u := range w.adj[v] {
			if u > v {
				us = append(us, u)
			}
		}
		sort.Ints(us)
		for _, u := range us {
			fmt.Fprintf(&sb, "e%d-%d", v, u)
			if a := w.adj[v][u]; a != nil {
				sb.WriteByte('@')
				a.encodeTo(&sb)
			}
			sb.WriteByte('|')
		}
	}
	return sb.String()
}

func (w *work) sortedAlive() []int {
	nodes := make([]int, 0, len(w.alive))
	for v := range w.alive {
		nodes = append(nodes, v)
	}
	sort.Ints(nodes)
	return nodes
}

func (w *work) degree(v int) int { return len(w.adj[v]) }

// candidate is a contractible structure found in the working query.
type candidate struct {
	cycle []int  // canonical cyclic order, or nil
	leaf  [2]int // [boundary a, leaf b] when cycle == nil
}

// candidates lists every block currently available for contraction.
func (w *work) candidates() []candidate {
	var out []candidate
	for _, b := range w.sortedAlive() {
		if w.degree(b) == 1 {
			var a int
			for u := range w.adj[b] {
				a = u
			}
			out = append(out, candidate{leaf: [2]int{a, b}})
		}
	}
	for _, cyc := range w.contractibleCycles() {
		out = append(out, candidate{cycle: cyc})
	}
	return out
}

// contractibleCycles enumerates simple cycles that are induced and have at
// most two boundary nodes, in canonical order (smallest node first,
// direction with the smaller second node).
func (w *work) contractibleCycles() [][]int {
	var out [][]int
	var path []int
	onPath := map[int]bool{}
	var dfs func(s, cur int)
	dfs = func(s, cur int) {
		for nb := range w.adj[cur] {
			if nb == s && len(path) >= 3 && path[1] < path[len(path)-1] {
				if w.contractibleCycle(path) {
					out = append(out, append([]int(nil), path...))
				}
				continue
			}
			if nb <= s || onPath[nb] || len(path) >= len(w.alive) {
				continue
			}
			path = append(path, nb)
			onPath[nb] = true
			dfs(s, nb)
			onPath[nb] = false
			path = path[:len(path)-1]
		}
	}
	for _, s := range w.sortedAlive() {
		path = append(path[:0], s)
		onPath = map[int]bool{s: true}
		dfs(s, s)
	}
	sort.Slice(out, func(i, j int) bool { return lessIntSlice(out[i], out[j]) })
	return out
}

func lessIntSlice(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// contractibleCycle checks the §4.1 conditions on a candidate simple cycle:
// induced (no chords) and at most two boundary nodes.
func (w *work) contractibleCycle(cyc []int) bool {
	in := map[int]bool{}
	for _, v := range cyc {
		in[v] = true
	}
	l := len(cyc)
	boundary := 0
	for i, v := range cyc {
		prev, next := cyc[(i+l-1)%l], cyc[(i+1)%l]
		outside := false
		for u := range w.adj[v] {
			if !in[u] {
				outside = true
			} else if u != prev && u != next {
				return false // chord: not induced
			}
		}
		if outside {
			boundary++
			if boundary > 2 {
				return false
			}
		}
	}
	return true
}

// boundaryOf returns the cycle's boundary nodes in ascending order.
func (w *work) boundaryOf(cyc []int) []int {
	in := map[int]bool{}
	for _, v := range cyc {
		in[v] = true
	}
	var bnd []int
	for _, v := range cyc {
		for u := range w.adj[v] {
			if !in[u] {
				bnd = append(bnd, v)
				break
			}
		}
	}
	sort.Ints(bnd)
	return bnd
}

// contract applies one §4.1 contraction to a fresh copy of w and returns
// the copy plus the created block. The block inherits all annotations found
// on its nodes and edges (they become its children).
func (w *work) contract(c candidate) (*work, *Block) {
	nw := w.clone()
	var b *Block
	if c.cycle != nil {
		cyc := canonicalCycle(c.cycle)
		l := len(cyc)
		b = &Block{Kind: CycleBlock, Nodes: cyc, Boundary: w.boundaryOf(cyc)}
		b.NodeAnn = make([]*Block, l)
		b.EdgeAnn = make([]*Block, l)
		for i, v := range cyc {
			b.NodeAnn[i] = w.nodeAnn[v]
			b.EdgeAnn[i] = w.adj[v][cyc[(i+1)%l]]
		}
		// Remove cycle edges, then non-boundary nodes.
		for i, v := range cyc {
			u := cyc[(i+1)%l]
			delete(nw.adj[v], u)
			delete(nw.adj[u], v)
		}
		keep := map[int]bool{}
		for _, x := range b.Boundary {
			keep[x] = true
		}
		for _, v := range cyc {
			if keep[v] {
				delete(nw.nodeAnn, v) // erased; captured in NodeAnn above
				continue
			}
			for u := range nw.adj[v] {
				delete(nw.adj[u], v)
			}
			delete(nw.adj, v)
			delete(nw.alive, v)
			delete(nw.nodeAnn, v)
		}
		switch len(b.Boundary) {
		case 1:
			nw.nodeAnn[b.Boundary[0]] = b
		case 2:
			x, y := b.Boundary[0], b.Boundary[1]
			nw.adj[x][y] = b
			nw.adj[y][x] = b
		}
	} else {
		a, leaf := c.leaf[0], c.leaf[1]
		b = &Block{
			Kind:     LeafEdge,
			Nodes:    []int{a, leaf},
			Boundary: []int{a},
			NodeAnn:  []*Block{w.nodeAnn[a], w.nodeAnn[leaf]},
			EdgeAnn:  []*Block{w.adj[a][leaf]},
		}
		delete(nw.adj[a], leaf)
		delete(nw.adj, leaf)
		delete(nw.alive, leaf)
		delete(nw.nodeAnn, leaf)
		delete(nw.nodeAnn, a)
		nw.nodeAnn[a] = b
	}
	for _, ann := range b.NodeAnn {
		if ann != nil {
			b.Children = append(b.Children, ann)
		}
	}
	for _, ann := range b.EdgeAnn {
		if ann != nil {
			b.Children = append(b.Children, ann)
		}
	}
	return nw, b
}

// canonicalCycle rotates/reflects the cycle so the minimum node comes
// first and its smaller neighbor second.
func canonicalCycle(cyc []int) []int {
	l := len(cyc)
	mi := 0
	for i, v := range cyc {
		if v < cyc[mi] {
			mi = i
		}
	}
	out := make([]int, l)
	if cyc[(mi+1)%l] < cyc[(mi+l-1)%l] {
		for i := 0; i < l; i++ {
			out[i] = cyc[(mi+i)%l]
		}
	} else {
		for i := 0; i < l; i++ {
			out[i] = cyc[(mi+l-i)%l]
		}
	}
	return out
}

// enumerate explores all contraction choices from state w, returning all
// distinct final root blocks keyed by canonical encoding. memo caches
// results by state key. Every root reachable from a reachable state is a
// root of the query, so it gives up (false) as soon as one state has more
// than maxTrees.
func enumerate(w *work, memo map[string]map[string]*Block) (map[string]*Block, bool) {
	// Terminal: a single node remains — singleton root.
	if len(w.alive) == 1 {
		v := w.sortedAlive()[0]
		b := &Block{Kind: SingletonRoot, Nodes: []int{v}, NodeAnn: []*Block{w.nodeAnn[v]}}
		if w.nodeAnn[v] != nil {
			b.Children = []*Block{w.nodeAnn[v]}
		}
		return map[string]*Block{b.encode(): b}, true
	}
	k := w.key()
	if got, ok := memo[k]; ok {
		return got, true
	}
	out := map[string]*Block{}
	for _, c := range w.candidates() {
		if c.cycle != nil && len(w.boundaryOf(c.cycle)) == 0 {
			// The cycle covers the whole remaining query: it is a root.
			_, b := w.contract(c)
			out[b.encode()] = b
		} else {
			nw, _ := w.contract(c)
			roots, ok := enumerate(nw, memo)
			if !ok {
				return nil, false
			}
			maps.Copy(out, roots)
		}
		if len(out) > maxTrees {
			return nil, false
		}
	}
	memo[k] = out
	return out, true
}
