package core

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/decomp"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/sig"
	"repro/internal/table"
)

// This file counts a root cycle block one start at a time (§5, Figure 6,
// Equation 1). Both walks of every split begin at the split's start U, and
// a root block's count is a sum over U: so each partition task takes its
// own vertices as starts in turn and, for each, goes through the block's
// walk trie (path.go) parents before children, building each walk's rows
// only at the vertices it reaches from U, joining each split's two walks as
// soon as both are built and dropping a walk's rows after its last
// extension and join. No walk table is made, sorted or probed.
//
// A start's rows live in U's squeezed palette: χ(U), which every signature
// holds, is dropped, and k−1 colours are left (sig.Sig.Squeeze). The row of
// vertex V is an own row (sig.OwnOf(k−1, h)) of the signatures that hold
// χ(V). Two walks of a split meet at V in exactly {χ(U), χ(V)} and cover
// every colour between them, so in own rows of V a signature's partner is
// its complement over the other k−2 colours, and the complement reverses
// the rows' order: a join at V is Σ_j P[j]·M[w−1−j], a dot product with one
// row read backwards. A walk's start is a row of its own: the one empty set
// with count 1, or the start annotation's signatures with χ(U) squeezed out.
//
// Every count the pass adds or multiplies is checked (bits.Add64,
// bits.Mul64): a task that wraps one raises a sticky flag, and the run is
// refused with ErrCountOverflow after the pass. The check is exact, where
// the other steps' bounds (overflow.go) are not.
//
// The load is what the old form of the join — every walk built as a table
// of (V, U, S) entries, one walk of each split streamed or pulled through
// the other's partner tables — charged, term by term and start by start
// (build and join list the terms), so PickPlan's ranking and Figure 11 see
// the same totals. It is charged to U's partition.
//
// A step past a walk's first extends a row at x over x's neighbours of
// each colour but χ(U)'s and χ(x)'s. Where deg(x) > k the trial's colour
// buckets hold them grouped (colourBuckets), so the step reads only those,
// looks the colour pair's shift up once a bucket, and charges the old
// form's load a bucket at a time; where deg(x) ≤ k, a bucket would hold
// about one neighbour, and the step tests each neighbour's colour instead.
// Both forms share the loop that extends a row (grow, meet). A start's own
// first step reads N(U) as it is.

// psNode is one node of a root block's walk trie as the pass builds it.
type psNode struct {
	parent int           // the node it extends; −1 at a start
	step   pathStep      // the step from parent; zero at a start
	ann    *decomp.Block // a start's annotation; nil at a bare start and at every step
	h      int           // its signatures' size in the start's palette
	depth  int           // steps from the start
	w      int           // a row's width, and that of the step's edge rows before its node annotation
	edgeH  int           // the edge rows' signature size
	edgeW  int
}

// psSplit is one split's join: its two walks, the walk the old form read
// through the join and how, and the split's multiplicity.
type psSplit struct {
	plus, minus int
	stream      int    // the walk the old form streamed or pulled
	pend        bool   // that walk was read as its last step appended it, not compacted
	fused       bool   // it is never built: its last step, a plain edge, is joined as it is taken
	times       uint64 // the block's splits this one stands for
}

// Ops of a block's schedule.
const (
	opBuild = iota // build a node's rows from its parent's
	opJoin         // join a split's two walks
	opDrop         // a node's last use is done: its rows are free
)

type psOp struct{ kind, i int }

// psPlan is a root block's schedule, the same for every start: the trie's
// nodes, the splits and the order in which the old form built, joined and
// dropped them. The order is the old form's so that a start's live rows are
// what its live tables were.
type psPlan struct {
	nodes   []psNode
	splits  []psSplit
	ops     []psOp
	ordered bool // DB: every vertex a walk adds ranks below U
	// bare: every walk starts bare and takes a data edge first, so a start
	// with no neighbour a walk may add has no rows at all; firstEdges is how
	// many first edges its schedule then charges deg(U) for.
	bare       bool
	firstEdges int64
	// rowSteps: some node extends a step's rows, not a start's, over a
	// plain data edge, so the pass reads colour buckets.
	rowSteps bool
}

// perStartPlan lays b's splits into the trie and replays the old form's
// joins over it, once, to learn which walk each join read and how (the
// rule split.sides applied with the pend rule it had: a walk may pend if
// it is not built yet, is not a bare start and this join is its last use).
func (s *solver) perStartPlan(b *decomp.Block) *psPlan {
	splits := s.splits(b)
	p := &psPlan{}
	index := map[*walk]int{}
	var uses []int
	var add func(n *walk) int
	add = func(n *walk) int {
		if i, ok := index[n]; ok {
			return i
		}
		nd := psNode{parent: -1, step: n.step}
		if n.parent != nil {
			nd.parent = add(n.parent)
			par := p.nodes[nd.parent]
			nd.depth, nd.h = par.depth+1, par.h+1
			if n.step.edgeAnn != nil {
				nd.h = par.h + len(n.step.edgeAnn.SubqueryNodes()) - 1
			}
			nd.edgeH = nd.h
			if n.step.nodeAnn != nil {
				nd.h += len(n.step.nodeAnn.SubqueryNodes()) - 1
			}
			nd.w, nd.edgeW = int(choose(s.k-2, nd.h-1)), int(choose(s.k-2, nd.edgeH-1))
		} else if n.startAnn != nil {
			nd.ann, nd.h = n.startAnn, len(n.startAnn.SubqueryNodes())-1
		}
		p.ordered = n.ordered
		index[n] = len(p.nodes)
		p.nodes = append(p.nodes, nd)
		uses = append(uses, n.uses)
		return index[n]
	}
	for _, sp := range splits {
		p.splits = append(p.splits, psSplit{plus: add(sp.plus), minus: add(sp.minus), times: sp.times})
	}
	built := make([]bool, len(p.nodes))
	done := func(i int) {
		if uses[i]--; uses[i] == 0 && (p.nodes[i].parent >= 0 || p.nodes[i].ann != nil) {
			p.ops = append(p.ops, psOp{opDrop, i})
		}
	}
	var build func(i int)
	build = func(i int) {
		if built[i] {
			return
		}
		built[i] = true
		n := p.nodes[i]
		if n.parent < 0 {
			if n.ann != nil {
				p.ops = append(p.ops, psOp{opBuild, i})
			}
			return
		}
		build(n.parent)
		p.ops = append(p.ops, psOp{opBuild, i})
		done(n.parent)
	}
	mayPend := func(i int) bool { return uses[i] == 1 && !built[i] && p.nodes[i].parent >= 0 }
	for j := range p.splits {
		sp := &p.splits[j]
		stream, idx := sp.minus, sp.plus
		if pl, mi := mayPend(sp.plus), mayPend(sp.minus); pl && !mi || pl == mi && p.nodes[sp.plus].depth > p.nodes[sp.minus].depth {
			stream, idx = sp.plus, sp.minus
		}
		st := p.nodes[stream].step
		sp.stream, sp.pend = stream, mayPend(stream)
		sp.fused = sp.pend && st.edgeAnn == nil && st.nodeAnn == nil
		build(idx)
		if sp.fused {
			build(p.nodes[stream].parent)
		} else {
			build(stream)
		}
		p.ops = append(p.ops, psOp{opJoin, j})
		if sp.fused {
			done(p.nodes[stream].parent) // the extension the join took
		}
		done(sp.plus)
		done(sp.minus)
	}
	p.bare = true
	for _, n := range p.nodes {
		p.bare = p.bare && n.ann == nil && (n.depth != 1 || n.step.edgeAnn == nil)
		p.rowSteps = p.rowSteps || n.depth > 1 && n.step.edgeAnn == nil
	}
	for _, op := range p.ops {
		switch {
		case op.kind == opBuild && p.nodes[op.i].depth == 1,
			op.kind == opJoin && p.splits[op.i].fused && p.nodes[p.splits[op.i].stream].depth == 1:
			p.firstEdges++
		}
	}
	return p
}

// runs reads a child table's entries a home vertex at a time, at any vertex
// of any partition: x's run, x in partition w, is ents[w][at[x+w]:at[x+w+1]].
// The offsets are pooled words, given back by release.
type runs struct {
	be   engine.Backend
	ents [][]table.Ent
	at   table.Scratch
}

// runsOf replicates t into every process (engine.Backend.Replicate) and
// indexes it over all partitions: each shard is compacted — the band's in
// one Run, the others', which only a dist rank holds besides its band, in
// turn — and laid out here, not through Run, which executes the band alone.
// An entry's home is its V, or its U where V is None (a unary table).
func (s *solver) runsOf(t *engine.Sharded) runs {
	end := s.tr.Start(PhaseTableMerge)
	s.be.Replicate(t)
	end()
	s.be.Run(func(w int) { t.Shard(w).Ents() })
	r := runs{be: s.be, ents: make([][]table.Ent, s.be.P()), at: table.BorrowWords(s.g.N() + s.be.P())}
	for w := range r.ents {
		ents := t.Shard(w).Ents()
		lo, hi := s.be.Range(w)
		at, j := r.at.Words[int(lo)+w:int(hi)+w+1], 0
		for v := lo; v < hi; v++ {
			at[v-lo] = uint64(j)
			for j < len(ents) && home(&ents[j]) == v {
				j++
			}
		}
		at[hi-lo] = uint64(j)
		r.ents[w] = ents
	}
	return r
}

func home(e *table.Ent) uint32 {
	if v := e.V(); v != table.None {
		return v
	}
	return e.U()
}

// of returns x's run.
func (r *runs) of(x uint32) []table.Ent {
	w := r.be.Owner(x)
	i := int(x) + w
	return r.ents[w][r.at.Words[i]:r.at.Words[i+1]]
}

func (r *runs) release() { r.at.Return() }

// rowSet is one node's rows at one start: reach[i]'s row is
// cells[i·w : (i+1)·w], and at maps a vertex's slot (startTask.slot) to its
// row index plus one, 0 for none.
type rowSet struct {
	w        int
	reach    []uint32
	at       []uint32
	cells    []uint64
	appended int64 // the entries the old form's last step appended building it
}

// startScratch is a task's storage, pooled: a vertex → slot array stamped
// with a generation a start bumps, so no start clears it, and rows for the
// trie's live nodes, handed from a dead node to a new one.
type startScratch struct {
	slots []uint64 // vertex → gen<<32 | slot
	gen   uint64
	next  uint32 // the slots a start has given out
	nodes []*rowSet
	spare []*rowSet
	kid   []uint64   // a child's row at a vertex, χ(U) squeezed out
	cells []startEnt // a row's cells that hold a count
}

// startEnt is a cell of a row: a signature over the squeezed palette and
// its count.
type startEnt struct {
	s sig.Sig
	c uint64
}

var startScratches sync.Pool

// startTask is one partition's pass over its starts.
type startTask struct {
	*startEnv
	sc     *startScratch
	k      int // the squeezed palette's colours, k−1
	u      uint32
	cu     uint8
	rank   uint64 // a vertex the walks add ranks below: U's, or above every rank (PS)
	load   int64
	poll   int
	carry  uint64 // sticky: a checked add or product wrapped
	halted bool
}

// startEnv is what every task of a block's pass reads: the schedule, the
// walk keys and colour buckets, and the children's tables the walks read,
// indexed.
type startEnv struct {
	s       *solver
	p       *psPlan
	keys    table.Scratch
	buckets *colourBuckets // nil where no step's rows take a plain edge, or no vertex has buckets
	edges   map[groupKey]*runs
	kids    map[*decomp.Block]*runs
}

// startEnv lays b's schedule and replicates and indexes the children's
// tables its walks read — grouped edge annotations, unary node and start
// annotations — in an order every process shares. It reports false, with
// what it laid released, if the run was canceled meanwhile.
func (s *solver) startEnv(b *decomp.Block) (*startEnv, bool) {
	e := &startEnv{s: s, p: s.perStartPlan(b), edges: map[groupKey]*runs{}, kids: map[*decomp.Block]*runs{}}
	s.walks.release()
	for _, n := range e.p.nodes {
		if st := n.step; st.edgeAnn != nil {
			key := groupKey{block: st.edgeAnn, fromFirst: st.edgeFromFirst}
			if e.edges[key] == nil {
				r := s.runsOf(s.groupBinary(st.edgeAnn, st.edgeFromFirst))
				e.edges[key] = &r
			}
		}
		for _, ann := range []*decomp.Block{n.ann, n.step.nodeAnn} {
			if ann != nil && e.kids[ann] == nil {
				r := s.runsOf(s.tables[ann])
				e.kids[ann] = &r
			}
		}
	}
	if s.aborted() {
		e.release()
		return nil, false
	}
	e.keys, e.buckets = s.walkKeys(e.p.rowSteps)
	return e, true
}

func (e *startEnv) release() {
	for _, r := range e.edges {
		r.release()
	}
	for _, r := range e.kids {
		r.release()
	}
	e.keys.Return()
	if e.buckets != nil {
		colourBucketPool.Put(e.buckets)
	}
}

// task returns a pass over starts on a pooled scratch, which close gives
// back.
func (e *startEnv) task() startTask {
	t := startTask{startEnv: e, k: e.s.k - 1}
	t.sc, _ = startScratches.Get().(*startScratch)
	if t.sc == nil {
		t.sc = &startScratch{}
	}
	if n := e.s.g.N(); len(t.sc.slots) < n {
		t.sc.slots, t.sc.gen = make([]uint64, n), 0
	}
	return t
}

func (t *startTask) close() { startScratches.Put(t.sc) }

// perStart counts root cycle block b: one pass over every start (above),
// each partition's task taking its own vertices as starts.
func (s *solver) perStart(b *decomp.Block) uint64 {
	e, ok := s.startEnv(b)
	if !ok {
		return 0
	}
	defer e.release()
	partial := make([]uint64, s.be.P())
	var carry atomic.Uint64
	s.cycleJoin(func() {
		s.be.Run(func(w int) {
			t := e.task()
			defer t.close()
			lo, hi := s.be.Range(w)
			for u := lo; u < hi && !t.halted; u++ {
				partial[w] = t.add(partial[w], t.start(u))
			}
			s.be.AddLoad(w, t.load)
			carry.Or(t.carry)
		})
	})
	if s.stop.Load() {
		return 0
	}
	if carry.Load() != 0 {
		s.refuse("the per-start join", "an exact sum")
		return 0
	}
	var total uint64
	for _, c := range partial {
		if total, ok = s.add("the per-start join", total, c); !ok {
			return 0
		}
	}
	return total
}

// walkKeys returns, for every vertex, what a walk asks of it as it adds it
// — its rank in the degree order, above its colour's eight bits — in one
// word, pooled: the pass reads it at every neighbour of a start and of a
// vertex without colour buckets. With buckets set, and a vertex of degree
// above k in the graph, it also lays the colour buckets, pooled, that the
// steps after a walk's first extend rows through. One Run lays the band's
// vertices, in the span of the walks' steps; a dist rank lays the others'
// after it, for a walk reaches any vertex.
func (s *solver) walkKeys(buckets bool) (table.Scratch, *colourBuckets) {
	keys := table.BorrowWords(s.g.N())
	var b *colourBuckets
	if buckets && s.deg > uint64(s.k) {
		b = s.colourBuckets()
	}
	lay := func(lo, hi uint32) {
		for v := lo; v < hi; v++ {
			keys.Words[v] = uint64(s.g.Rank(v))<<8 | uint64(s.colors[v])
			if b != nil && s.g.Degree(v) > s.k {
				b.lay(v)
			}
		}
	}
	end := s.tr.Start(PhasePathJoin)
	s.be.Run(func(w int) { lay(s.be.Range(w)) })
	end()
	lo, hi := s.be.Owned()
	lay(0, lo)
	lay(hi, uint32(s.g.N()))
	return keys, b
}

// colourBuckets hold a trial's neighbour lists of the vertices of degree
// above k, each regrouped into one bucket per colour, in id order. x's
// buckets sit where g.Neighbors(x) sits among the graph's arcs, in colour
// order, and x's line of k+1 words in at holds the colours whose bucket is
// not empty, then where each bucket ends (of, bucket). A vertex of degree k
// or less has none, and nothing of its slots is written or read: its
// buckets would hold about one arc each, and a scan of its neighbours reads
// no more.
type colourBuckets struct {
	g      *graph.Graph
	colors []uint8
	k      int
	arcs   []uint32
	at     []uint32 // x's line is at[x·(k+1):][:k+1]
}

// colourBucketPool holds the storage of the last trial's buckets, so the
// next trial on the graph lays its own into the same arrays.
var colourBucketPool sync.Pool

// colourBuckets returns pooled bucket storage sized for s's graph and k.
func (s *solver) colourBuckets() *colourBuckets {
	b, _ := colourBucketPool.Get().(*colourBuckets)
	if b == nil {
		b = &colourBuckets{}
	}
	n, arcs := s.g.N(), 2*int(s.g.M())
	b.g, b.colors, b.k = s.g, s.colors, s.k
	b.arcs = slices.Grow(b.arcs[:0], arcs)[:arcs]
	b.at = slices.Grow(b.at[:0], n*(s.k+1))[:n*(s.k+1)]
	return b
}

// lay lays x's buckets: a count of each colour, and the neighbours dealt to
// their colours' buckets in id order.
func (b *colourBuckets) lay(x uint32) {
	at, arcs := b.of(x)
	var next [sig.MaxRankedColors]uint32 // a count of each colour, then where its bucket fills next
	for _, v := range b.g.Neighbors(x) {
		next[b.colors[v]]++
	}
	mask, end := uint32(0), uint32(0)
	for c := range b.k {
		if next[c] != 0 {
			mask |= 1 << c
		}
		next[c], end = end, end+next[c]
		at[c+1] = end
	}
	at[0] = mask
	for _, v := range b.g.Neighbors(x) {
		c := b.colors[v]
		arcs[next[c]] = v
		next[c]++
	}
}

// of returns x's line and its buckets' arcs.
func (b *colourBuckets) of(x uint32) (at, arcs []uint32) {
	return b.at[int(x)*(b.k+1):][:b.k+1], b.arcs[b.g.ArcOffset(x):][:b.g.Degree(x)]
}

// bucket returns the bucket of colour c among arcs, a vertex's buckets'
// arcs; at is its line.
func bucket(at, arcs []uint32, c int) []uint32 {
	lo := uint32(0)
	if c > 0 {
		lo = at[c]
	}
	return arcs[lo:at[c+1]]
}

// add and mul are the pass's checked arithmetic.
func (t *startTask) add(a, b uint64) uint64 {
	s, c := bits.Add64(a, b, 0)
	t.carry |= c
	return s
}

func (t *startTask) mul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	t.carry |= hi
	return lo
}

// start runs the schedule for start u and returns what its joins sum.
func (t *startTask) start(u uint32) (sum uint64) {
	s, sc := t.s, t.sc
	if t.halted = s.stop.Load(); t.halted {
		return 0
	}
	if sc.gen++; sc.gen == 1<<32 {
		clear(sc.slots)
		sc.gen = 1
	}
	sc.next = 0
	t.u, t.cu, t.rank = u, s.colors[u], ^uint64(0)
	if t.p.ordered {
		t.rank = uint64(s.g.Rank(u))
	}
	if t.p.bare && !slices.ContainsFunc(s.g.Neighbors(u), t.keep) {
		t.load += int64(s.g.Degree(u)) * t.p.firstEdges // every walk ends at its first edge
		return 0
	}
	if len(sc.nodes) < len(t.p.nodes) {
		sc.nodes = append(sc.nodes, make([]*rowSet, len(t.p.nodes)-len(sc.nodes))...)
	}
	for _, op := range t.p.ops {
		if t.halted {
			break
		}
		switch op.kind {
		case opBuild:
			t.build(op.i)
		case opJoin:
			sp := &t.p.splits[op.i]
			sum = t.add(sum, t.mul(t.join(sp), sp.times))
		case opDrop:
			t.drop(op.i)
		}
	}
	for i, r := range sc.nodes[:len(t.p.nodes)] { // a halted start's
		if r != nil {
			t.drop(i)
		}
	}
	return sum
}

// sq returns the colour of a vertex whose walk key is key in the start's
// squeezed palette: χ(U) dropped, the colours above it moved down one.
func (t *startTask) sq(key uint64) uint8 {
	if c := uint8(key); c < t.cu {
		return c
	}
	return uint8(key) - 1
}

// slot returns v's slot at this start, giving it one if it has none.
func (t *startTask) slot(v uint32) uint32 {
	sc := t.sc
	if w := sc.slots[v]; w>>32 == sc.gen {
		return uint32(w)
	}
	sc.slots[v] = sc.gen<<32 | uint64(sc.next)
	sc.next++
	return sc.next - 1
}

// rowAt returns v's row in r, nil if r has none.
func (t *startTask) rowAt(r *rowSet, v uint32) []uint64 {
	w := t.sc.slots[v]
	if w>>32 != t.sc.gen || uint32(w) >= uint32(len(r.at)) {
		return nil
	}
	i := r.at[uint32(w)]
	if i == 0 {
		return nil
	}
	return r.cells[int(i-1)*r.w:][:r.w]
}

// rowFor returns v's row in r, a new one, zero, if r has none.
func (t *startTask) rowFor(r *rowSet, v uint32) []uint64 {
	s := t.slot(v)
	if int(s) >= len(r.at) {
		n := len(r.at)
		r.at = append(r.at[:n], make([]uint32, int(s)+1-n)...)
	}
	if i := r.at[s]; i != 0 {
		return r.cells[int(i-1)*r.w:][:r.w]
	}
	r.reach = append(r.reach, v)
	r.at[s] = uint32(len(r.reach))
	n := len(r.cells)
	r.cells = append(r.cells, make([]uint64, r.w)...)
	return r.cells[n:]
}

// open returns an empty row set of width w from the spare ones.
func (t *startTask) open(w int) *rowSet {
	sc := t.sc
	var r *rowSet
	if n := len(sc.spare); n > 0 {
		r, sc.spare = sc.spare[n-1], sc.spare[:n-1]
	} else {
		r = &rowSet{}
	}
	r.w, r.reach, r.at, r.cells, r.appended = w, r.reach[:0], r.at[:0], r.cells[:0], 0
	return r
}

func (t *startTask) drop(i int) {
	if r := t.sc.nodes[i]; r != nil {
		t.sc.spare = append(t.sc.spare, r)
		t.sc.nodes[i] = nil
	}
}

// polled counts ops towards the next cancellation poll and reports whether
// the run is stopped.
func (t *startTask) polled(ops int) bool {
	if t.s.canceledAfter(&t.poll, ops) {
		t.halted = true
	}
	return t.halted
}

// startRow returns node i's start: its annotation's row at U, χ(U)
// squeezed out, or the empty set once (bare).
func (t *startTask) startRow(i int) []startEnt {
	ann := t.p.nodes[i].ann
	if ann == nil {
		return bare
	}
	sc := t.sc
	sc.cells = sc.cells[:0]
	for _, e := range t.kids[ann].of(t.u) {
		sc.cells = append(sc.cells, startEnt{e.S.Squeeze(t.cu), e.C})
	}
	return sc.cells
}

// bare is a bare start's row: the empty set, once. No one writes it.
var bare = []startEnt{{0, 1}}

// build makes node i's rows from its parent's: the step's edge — a data
// edge or an annotated one — and then, if the step has one, its node
// annotation. It charges the old form's terms: the edge step's rows read
// times the edges each is extended over (a first data edge deg(U), a first
// annotated edge U's child run), the node step's pairs of nonzero counts.
func (t *startTask) build(i int) {
	n := &t.p.nodes[i]
	if n.parent < 0 { // an annotated start: lifted, charging nothing
		return
	}
	st := n.step
	edge := t.open(n.edgeW)
	if st.edgeAnn == nil {
		t.plainEdge(n.parent, edge, nil)
	} else {
		t.annotatedEdge(n.parent, edge, t.edges[groupKey{block: st.edgeAnn, fromFirst: st.edgeFromFirst}])
	}
	if st.nodeAnn == nil {
		t.sc.nodes[i] = edge
		return
	}
	out := t.open(n.w)
	t.nodeStep(edge, n.edgeH, out, t.kids[st.nodeAnn])
	t.sc.spare = append(t.sc.spare, edge)
	t.sc.nodes[i] = out
}

// keep reports whether a walk at the start may add v: under DB, v ranks
// below U, and v's colour is not U's. A step past the first asks the colour
// half by bucket or by neighbour (plainEdge), and the rank half in grow and
// meet.
func (t *startTask) keep(v uint32) bool {
	key := t.keys.Words[v]
	return key>>8 < t.rank && uint8(key) != t.cu
}

// plainEdge extends node p's rows over the data graph's edges. With into
// set, it builds into's rows, and from a start counts the cells it writes:
// the entries the old form's first step appended. With join set instead —
// a step's rows, never a start's — it builds nothing and returns what the
// extended rows sum against join's partners, and charges the extensions
// made, as the old form's pulled join did.
func (t *startTask) plainEdge(p int, into, join *rowSet) (sum uint64) {
	s := t.s
	h := t.p.nodes[p].h
	if t.p.nodes[p].parent < 0 {
		start, up := t.startRow(p), sig.OwnOf(t.k, h+1)
		nbrs := s.g.Neighbors(t.u)
		t.load += int64(len(start) * len(nbrs))
		if t.polled(len(nbrs)) {
			return 0
		}
		for _, v := range nbrs {
			if !t.keep(v) {
				continue
			}
			cv := t.sq(t.keys.Words[v])
			row := t.rowFor(into, v)
			for _, e := range start {
				if !e.s.Has(cv) {
					into.appended++
					at := up.Pos(e.s.Add(cv), cv)
					row[at] = t.add(row[at], e.c)
				}
			}
		}
		return 0
	}
	src := t.sc.nodes[p]
	shifts, own := sig.ShiftsOf(t.k, h), sig.OwnOf(t.k, h)
	var has [sig.MaxRankedColors]int
	// The books stay in locals: load, and the carries of the sums, ORed.
	load, carry := t.load, uint64(0)
	defer func() { t.load, t.carry = load, t.carry|carry }()
	// step takes row over x's edges to vs, which share a colour and so the
	// shift sh, and charges what the old form's pull did: each extension
	// made, the row's nonzero cells less the held that hold that colour.
	// Both forms of a row's step below go through it.
	step := func(row []uint64, sh *sig.Shift, vs []uint32, nz, held int) {
		if into != nil {
			t.grow(row, sh, vs, into)
			return
		}
		n, part := t.meet(row, sh, vs, join)
		load += int64(n * (nz - held))
		var c uint64
		sum, c = bits.Add64(sum, part, 0)
		carry |= c
	}
	for r, x := range src.reach {
		row := src.cells[r*src.w:][:src.w]
		nz := table.NonZero(row)
		if nz == 0 {
			continue
		}
		nbrs := s.g.Neighbors(x)
		load += int64(nz * len(nbrs))
		if t.polled(len(nbrs)) {
			return 0
		}
		kx := t.keys.Words[x]
		cx := t.sq(kx)
		shx := shifts[cx]
		if join != nil { // the nonzero cells that hold each colour
			has = [sig.MaxRankedColors]int{}
			for j, c := range row {
				if c != 0 {
					for b := own.Sigs[cx][j]; b != 0; b &= b - 1 {
						has[bits.TrailingZeros32(uint32(b))]++
					}
				}
			}
		}
		if len(nbrs) <= s.k { // no buckets: a neighbour at a time, but χ(U)'s and χ(x)'s
			for i, v := range nbrs {
				if c := uint8(t.keys.Words[v]); c != t.cu && c != uint8(kx) {
					cv := t.sq(uint64(c))
					step(row, &shx[cv], nbrs[i:i+1], nz, has[cv])
				}
			}
			continue
		}
		// A bucket of each colour but χ(U)'s and χ(x)'s.
		at, arcs := t.buckets.of(x)
		for m := at[0] &^ (1<<t.cu | 1<<uint8(kx)); m != 0; m &= m - 1 {
			c := bits.TrailingZeros32(m)
			cv := t.sq(uint64(c))
			step(row, &shx[cv], bucket(at, arcs, c), nz, has[cv])
		}
	}
	return sum
}

// grow adds row, shifted by sh, into the row in into of each of vs that
// ranks below U.
func (t *startTask) grow(row []uint64, sh *sig.Shift, vs []uint32, into *rowSet) {
	to, carry := sh.To[:len(sh.From)], uint64(0)
	for _, v := range vs {
		if t.keys.Words[v]>>8 >= t.rank {
			continue
		}
		dst := t.rowFor(into, v)
		for j, f := range sh.From {
			var c uint64
			dst[to[j]], c = bits.Add64(dst[to[j]], row[f], 0)
			carry |= c
		}
	}
	t.carry |= carry
}

// meet sums row, shifted by sh, against the partner row in join, read
// backwards, of each of vs that ranks below U. It returns how many of vs
// rank below U, and the sum.
func (t *startTask) meet(row []uint64, sh *sig.Shift, vs []uint32, join *rowSet) (n int, sum uint64) {
	to, carry := sh.To[:len(sh.From)], uint64(0)
	for _, v := range vs {
		if t.keys.Words[v]>>8 >= t.rank {
			continue
		}
		n++
		if dst := t.rowAt(join, v); dst != nil {
			last := len(dst) - 1
			for j, f := range sh.From {
				hi, lo := bits.Mul64(row[f], dst[last-int(to[j])])
				var c uint64
				sum, c = bits.Add64(sum, lo, 0)
				carry |= hi | c
			}
		}
	}
	t.carry |= carry
	return n, sum
}

// annotatedEdge extends node p's rows over the edges an edge annotation's
// grouped table joins each vertex to: a cell and a child entry meet in
// exactly the vertex's colour — from a start, where that colour is χ(U) and
// squeezed out, in nothing — and the child must not hold χ(U) past the
// start. It counts the pairs that meet: the entries the old form's step
// appended.
func (t *startTask) annotatedEdge(p int, into *rowSet, edges *runs) {
	first := t.p.nodes[p].parent < 0
	reach, meet := []uint32{t.u}, sig.Sig(0)
	var src *rowSet
	if !first {
		src = t.sc.nodes[p]
		reach = src.reach
	}
	h := t.p.nodes[p].h
	for r, x := range reach {
		var cells []startEnt
		if first {
			cells = t.startRow(p)
		} else { // the row's cells that hold a count
			cx := t.sq(t.keys.Words[x])
			sigs := sig.OwnOf(t.k, h).Sigs[cx]
			cells, meet = t.sc.cells[:0], sig.Of(cx)
			for j, c := range src.cells[r*src.w:][:src.w] {
				if c != 0 {
					cells = append(cells, startEnt{sigs[j], c})
				}
			}
			t.sc.cells = cells
		}
		run := edges.of(x)
		t.load += int64(len(cells) * len(run))
		if len(cells) == 0 || len(run) == 0 {
			continue
		}
		if t.polled(len(run)) {
			return
		}
		for i := range run {
			e := &run[i]
			end := e.U()
			if t.keys.Words[end]>>8 >= t.rank || e.S.Has(t.cu) != first {
				continue
			}
			es := e.S.Squeeze(t.cu)
			ce := t.sq(t.keys.Words[end])
			up := sig.OwnOf(t.k, h+es.Size()-meet.Size())
			for _, a := range cells {
				if a.s.Inter(es) != meet {
					continue
				}
				into.appended++
				dst := t.rowFor(into, end)
				at := up.Pos(a.s.Union(es), ce)
				dst[at] = t.add(dst[at], t.mul(a.c, e.C))
			}
		}
	}
}

// nodeStep combines each row of edge, of size-ha signatures, with the unary
// child's row at its vertex, χ(U) squeezed out, into out (sig.PairsOf). A
// pair of nonzero counts is an operation, whether they meet or not, as in
// nodeJoin; the nonzero cells of out are the entries the old form's step
// appended.
func (t *startTask) nodeStep(edge *rowSet, ha int, out *rowSet, kid *runs) {
	for r, v := range edge.reach {
		a := edge.cells[r*edge.w:][:edge.w]
		run := kid.of(v)
		na := table.NonZero(a)
		n := na * len(run)
		if n == 0 {
			continue
		}
		t.load += int64(n)
		if t.polled(n) {
			return
		}
		hb := run[0].S.Size()
		own, pairs := sig.OwnOf(t.k, hb), sig.PairsOf(t.k, ha, hb)
		cv := t.sq(t.keys.Words[v])
		b := t.sc.kid[:0]
		b = append(b, make([]uint64, len(own.Sigs[0]))...)
		t.sc.kid = b
		for i := range run {
			if e := &run[i]; !e.S.Has(t.cu) {
				b[own.Pos(e.S.Squeeze(t.cu), cv)] = e.C
			}
		}
		dst := t.rowFor(out, v)
		for i, c := range a {
			if c == 0 {
				continue
			}
			lo, hi := pairs.At[i], pairs.At[i+1]
			from, to := pairs.B[lo:hi], pairs.T[lo:hi]
			to = to[:len(from)]
			for x, j := range from {
				dst[to[x]] = t.add(dst[to[x]], t.mul(c, b[j]))
			}
		}
		out.appended += int64(table.NonZero(dst))
	}
}

// join sums the split's joins at every vertex, and charges what the old
// form charged reading its streamed walk: a walk it pulled, the pulled
// step's rows read and the extensions it made (plainEdge); one it streamed
// as its last step left it, the entries that step appended; any other, its
// rows' nonzero cells. A fused walk from a start is built after all, into
// rows of its own, and joined as any other: there is one row to extend.
func (t *startTask) join(sp *psSplit) uint64 {
	index, stream := t.sc.nodes[sp.plus], t.sc.nodes[sp.stream]
	if sp.stream == sp.plus {
		index = t.sc.nodes[sp.minus]
	}
	if parent := t.p.nodes[sp.stream].parent; sp.fused && t.p.nodes[parent].parent >= 0 {
		return t.plainEdge(parent, nil, index)
	} else if sp.fused {
		stream = t.open(index.w)
		defer func() { t.sc.spare = append(t.sc.spare, stream) }()
		t.plainEdge(parent, stream, nil)
	}
	if sp.pend {
		t.load += stream.appended
	} else {
		for r := range stream.reach {
			t.load += int64(table.NonZero(stream.cells[r*stream.w:][:stream.w]))
		}
	}
	return t.dot(stream, index)
}

// dot sums Σ_j a[j]·b[w−1−j] at every vertex of both a and b.
func (t *startTask) dot(a, b *rowSet) (sum uint64) {
	for r, v := range a.reach {
		if t.polled(a.w) {
			return 0
		}
		m := t.rowAt(b, v)
		if m == nil {
			continue
		}
		last, carry := len(m)-1, uint64(0)
		for j, c := range a.cells[r*a.w:][:a.w] {
			hi, lo := bits.Mul64(c, m[last-j])
			var cc uint64
			sum, cc = bits.Add64(sum, lo, 0)
			carry |= hi | cc
		}
		t.carry |= carry
	}
	return sum
}
