package core

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/decomp"
	"repro/internal/engine"
	"repro/internal/sig"
	"repro/internal/table"
)

// This file implements the unified path builder shared by the PS and DB
// cycle solvers and by leaf-edge blocks. A path is a directed walk along
// cycle positions from a start node to an end node; its projection table is
// built by an init step followed by alternating EdgeJoin and NodeJoin
// operations (§5.2 Figure 7). Keys are (U=π(start), V=π(current end)) with
// optional recorded boundary mappings in X/Y (the §5.1 configurations), and
// entries live at the owner of V, as in the paper's engine (§7).
//
// A walk's table is a function of its spec alone — where it starts and the
// child blocks, orientations and record slots of its steps, never the query
// node ids it passes — and across the 2L walks of a DB block's splits those
// specs repeat. So a block's walks are laid into a prefix trie (walkTrie)
// before any is built: each distinct prefix is built once, from its parent
// prefix, and the trie owns every walk table's lifetime, releasing a node's
// table after the last extension or join that reads it.
//
// The joins run over the flat signature-major layout (table.Flat): each
// shard's entries are grouped by the home vertex, and a join reads both its
// sides a vertex at a time (table.Rows) — a sorted shard's runs, a pending
// matrix's rows — so an inner loop is a linear scan and the child side needs
// no hash map and no index. A node step is a product of two own rows of its
// vertex through a colour-free pair table (nodeJoin, sig.Pairs). A join
// writes each entry
// it produces once, packed as the table stores it (table.Ent: V high and U
// low in one word, X high and Y low in the other), straight into the lane
// of the partition that owns its home vertex (engine.Lanes). The edge
// loops run run-major: for each run of source entries that share their end
// vertex, for each neighbour, the neighbour's colour and lane are found
// once, and the run's entries land there back to back.
//
// A start-free walk's data-edge step is the tree DP's sparse adjacency
// matrix times its vertex × colour-set matrix (engine.NewMatrix), and the
// data graph is undirected, so it runs the other way round (edgePull): the
// owner of each vertex v sums its neighbours' box rows by colour, then
// shifts each colour's sum by the colour pair (sig.Shift) into v's row of
// its own box, which it writes once (engine.Backend.Pull). Where a node
// annotation follows, the two steps are one (pullNode): v's row of the
// edge is combined with the child's at once, and the edge's table is never
// built. No lane, stage or box merge is made; load is counted as the push
// form counts it, and a message is a neighbour row read from another
// partition. It pushes where a source shard is not an open box (one over
// boxCap) or the process does not hold every partition (dist).
//
// A root cycle's join pulls too (pullJoin, cycle.go): where the walk it
// would stream ends in a plain data edge, the walk is never built — the
// join reads the walk's prefix a vertex's run at a time, extends each entry
// across the edge as edgeJoin would and finds its one partner at once, in
// one probe of the home vertex's partners table, which lives here. A join
// with boundary nodes needs no index: its two walks are built sorted, and it
// merges them (boundaryJoin).

// pathStep extends the walk by one cycle node.
type pathStep struct {
	edgeAnn       *decomp.Block // child block annotating the traversed edge; nil = data-graph edge
	edgeFromFirst bool          // traversal enters the child at Boundary[0]
	nodeAnn       *decomp.Block // unary child annotating the added node; nil = none
	record        int           // 0 = none, 1 = record mapped vertex in X, 2 = in Y
}

// pathStart is where a walk begins: everything its table depends on besides
// its steps.
type pathStart struct {
	startAnn *decomp.Block // unary child annotating the start node (P− convention)
	ordered  bool          // DB: every added cycle vertex must rank below π(start)
	// free marks a walk whose start nothing downstream reads (a leaf
	// block's): its keys carry U = None from the first table on, so entries
	// that differ only in π(start) fold together as soon as they are built.
	free bool
}

// walk is one node of a block's walk trie: one distinct walk prefix and,
// between its build and its last use, that prefix's table.
type walk struct {
	pathStart
	parent *walk    // the prefix one step shorter; nil at a walk's start
	step   pathStep // the step that extends parent; zero at a walk's start
	table  *engine.Sharded
	uses   int // extensions to build from the table and joins to read it, still to come
}

// walkKey identifies a trie node by structure: child block identity,
// orientation, record slot and the start's fields — two walks that agree on
// all of it build the same table.
type walkKey struct {
	parent *walk
	start  pathStart // set at a walk's start only; steps inherit it through parent
	step   pathStep
}

// walkTrie holds the walks of the block being solved.
type walkTrie map[walkKey]*walk

// add lays a walk into the trie and returns its last node, with one more
// use pending on it — the caller's join.
func (t walkTrie) add(start pathStart, steps ...pathStep) *walk {
	n := t.node(walkKey{start: start})
	for _, st := range steps {
		n = t.node(walkKey{parent: n, step: st})
	}
	n.uses++
	return n
}

func (t walkTrie) node(k walkKey) *walk {
	n := t[k]
	if n == nil {
		n = &walk{pathStart: k.start, parent: k.parent, step: k.step}
		if k.parent != nil {
			n.pathStart = k.parent.pathStart
			k.parent.uses++
		}
		t[k] = n
	}
	return n
}

// steps returns how many steps lead to the walk's node.
func (n *walk) steps() int {
	d := 0
	for ; n.parent != nil; n = n.parent {
		d++
	}
	return d
}

// done ends one pending use of the walk's table and releases the table to
// the slab pool after the last.
func (n *walk) done() {
	if n.uses--; n.uses == 0 {
		n.drop()
	}
}

func (n *walk) drop() {
	if n.table != nil {
		n.table.Release()
		n.table = nil
	}
}

// release drops whatever tables a canceled run left in the trie.
func (t walkTrie) release() {
	for _, n := range t {
		n.drop()
	}
}

// buildPath makes sure the walk's table exists, building the prefixes of it
// that no earlier walk of the block left behind. It reports false when the
// run is canceled: a table whose build saw the cancellation is partial, so
// it is released on the spot, never stored for another walk to extend.
//
// pend leaves the walk's own table — the last one built, never a prefix's —
// as its superstep left it: chunks of entries in the order they were
// appended, duplicates unfolded, or an open box (track). Only a reader that
// wants neither order nor folded counts may ask for that: a root cycle's
// join (split.sides). A start-free walk's tables are all left pending,
// whatever is asked: each has one reader — a join or the projection — and
// every one takes a table as it lies (table.Rows, MoveBox).
func (s *solver) buildPath(n *walk, pend bool) bool {
	if n.table != nil {
		return true
	}
	p := n.parent
	var t *engine.Sharded
	switch {
	case p == nil && n.startAnn == nil:
		return true // a bare start has no table: its first edge seeds the walk
	case p == nil:
		t = s.lift(n.pathStart)
	case !s.buildPath(p, false) || s.aborted():
		return false
	default:
		t = s.extend(p.table, n.pathStart, n.step, pend || n.free)
	}
	if p != nil {
		p.done()
	}
	if s.stop.Load() {
		t.Release()
		return false
	}
	n.table = t
	return true
}

// extend builds the table of a walk one step past cur, the table of the walk
// before the step (nil where the step is the walk's first edge): the step's
// edge, then its node annotation, if it has one. A start-free walk's data
// edge into a node annotation is one pulled step (pullNode) where it can
// be; otherwise the edge's table is built, the node step reads it, and it
// is released.
func (s *solver) extend(cur *engine.Sharded, spec pathStart, st pathStep, pend bool) *engine.Sharded {
	last := st.nodeAnn == nil // the step's edge table is the walk's
	if !last && spec.free && st.edgeAnn == nil {
		if t := s.pullNode(cur, spec, st.nodeAnn); t != nil {
			return t
		}
	}
	edgePend := pend && (last || spec.free)
	var t *engine.Sharded
	if cur == nil {
		t = s.initEdge(spec, st, edgePend)
	} else {
		t = s.edgeJoin(cur, spec, st, edgePend)
	}
	if last {
		return t
	}
	defer t.Release()
	return s.nodeJoin(t, spec, st.nodeAnn, pend)
}

// newTable returns the empty table of a walk from spec: a start-free walk's
// keys are (None, end vertex, signature) and nothing else, which the table
// is told.
func (s *solver) newTable(spec pathStart) *engine.Sharded {
	if spec.free {
		return engine.NewMatrix(s.be, s.k, s.colors, true)
	}
	return engine.NewSharded(s.be)
}

// startKey is the U a walk that starts at vertex u carries in its keys.
func (p pathStart) startKey(u uint32) uint32 {
	if p.free {
		return table.None
	}
	return u
}

// recordSlot is where a step records the vertex it adds, in terms of an
// entry's XY word (X high, Y low): keep masks the half the step leaves
// alone — all of the word for a step that records nothing — and shift
// moves a vertex into the other half.
type recordSlot struct {
	keep  uint64
	shift uint
}

func slotOf(record int) recordSlot {
	switch record {
	case 1:
		return recordSlot{keep: 1<<32 - 1, shift: 32}
	case 2:
		return recordSlot{keep: ^uint64(1<<32 - 1)}
	}
	return recordSlot{keep: ^uint64(0)}
}

// ent packs the entry of a walk from start that the step has taken to end
// (VU: V high, U low). kept is the XY word of the entry it extends, under
// r.keep — r.keep itself for a walk's first step, which extends nothing.
func (r recordSlot) ent(start, end uint32, kept uint64, s sig.Sig, c uint64) table.Ent {
	return table.Ent{VU: uint64(end)<<32 | uint64(start), XY: kept | uint64(end)<<r.shift&^r.keep, S: s, C: c}
}

// initEdge seeds the walk's table from its first edge: either the data
// graph's edges (count 1 per edge per direction, signature {χ(u),χ(v)},
// Figure 4/6 Procedure 1 line 1) or the annotating child block's table. A
// start-free walk's data edge is pulled (pullEdge, from no table) where the
// backend can.
func (s *solver) initEdge(spec pathStart, st pathStep, pend bool) *engine.Sharded {
	out := s.newTable(spec)
	slot := slotOf(st.record)
	defer s.tr.Start(PhasePathJoin)()
	if st.edgeAnn == nil {
		out.Max = s.deg // a vertex's edges to other colours, at most
		if spec.free && s.pullEdge(nil, out) {
			return s.finish(out, pend)
		}
		s.be.Step(out, func(w int, to *engine.Lanes) {
			lo, hi := s.be.Range(w)
			var load int64
			var poll int
			// The inner break exits one neighbor scan with the poll counter
			// mid-interval, so the outer loop reads the latched stop flag
			// directly — a shared counter check here would realign only
			// every cancelInterval neighbor ops, once per vertex.
			for u := lo; u < hi && !s.stop.Load(); u++ {
				cu := s.colors[u]
				su, start := sig.Of(cu), spec.startKey(u)
				for _, v := range s.g.Neighbors(u) {
					load++
					if s.canceled(&poll) {
						break
					}
					if spec.ordered && !s.g.Higher(u, v) {
						continue
					}
					if s.colors[v] == cu {
						continue
					}
					to.At(v).AddEnt(slot.ent(start, v, slot.keep, su.Add(s.colors[v]), 1))
				}
			}
			s.be.AddLoad(w, load)
		})
		return s.finish(out, pend)
	}
	child := s.tables[st.edgeAnn]
	starts := uint64(1)
	if spec.free {
		starts = uint64(s.g.N()) // entries that differ only in their start fold
	}
	var ok bool
	if out.Max, ok = s.fits("initEdge", child.Max, starts); !ok {
		return out
	}
	s.be.Step(out, func(w int, to *engine.Lanes) {
		var load int64
		var poll int
		ents := child.Shard(w).Ents()
		for i := range ents {
			e := &ents[i]
			load++
			if s.canceled(&poll) {
				break
			}
			from, end := e.U(), e.V()
			if !st.edgeFromFirst {
				from, end = end, from
			}
			if spec.ordered && !s.g.Higher(from, end) {
				continue
			}
			to.At(end).AddEnt(slot.ent(spec.startKey(from), end, slot.keep, e.S, e.C))
		}
		s.be.AddLoad(w, load)
	})
	return s.finish(out, pend)
}

// pullRows builds partition w's rows [lo, hi) of a start-free walk's table
// in pull form: sum(v, row) adds v's counts, ranked by rk in the row of v's
// colour under colors, into row, which is zero, and reports false once the
// run is canceled. Where the partition's rows fit a box, row is v's row in
// it (table.Flat.OpenRows), cleared just before it is summed; else it is
// summed aside and written as entries. A canceled task leaves the rows it
// did not reach unwritten: its table is released unread (buildPath).
func pullRows(to *table.Flat, lo, hi uint32, rk *sig.Own, colors []uint8, sum func(v uint32, row []uint64) bool) {
	var aside table.Scratch
	boxed := to.OpenRows(rk)
	if !boxed {
		aside = table.BorrowWords(len(rk.Sigs[0]))
	}
	defer aside.Return()
	for v := lo; v < hi; v++ {
		row := aside.Words
		if boxed {
			row, _ = to.Row(v)
		}
		clear(row)
		if !sum(v, row) {
			return
		}
		sigs := rk.Sigs[colors[v]]
		for j, c := range aside.Words {
			if c != 0 {
				to.AddEnt(table.BinaryEnt(table.None, v, sigs[j], c))
			}
		}
	}
}

// lift turns the unary table (u,α) of the child annotating the start node
// into the degenerate walk table (u,u,α), seeding a path that includes that
// annotation. A start-free walk's is (None,u,α), the child's rows with the
// vertex in the other key half: a shard's open box moves over whole
// (table.Flat.MoveBox) — the child annotates this one place, and nothing
// reads it after — and the table is left pending for its next step.
func (s *solver) lift(spec pathStart) *engine.Sharded {
	child := s.tables[spec.startAnn]
	out := s.newTable(spec)
	out.Max = child.Max
	defer s.tr.Start(PhasePathJoin)()
	s.be.Run(func(w int) {
		sh, src := out.Shard(w), child.Shard(w)
		if spec.free {
			if sh.MoveBox(src) {
				return
			}
		}
		rows := src.Rows(s.aborted)
		for run := rows.Next(); len(run) > 0; run = rows.Next() {
			for i := range run {
				e := &run[i]
				sh.AddEnt(table.BinaryEnt(spec.startKey(e.U()), e.U(), e.S, e.C))
			}
		}
		rows.Close()
	})
	return s.finish(out, spec.free)
}

// edgeJoin extends every walk entry (u,v,…,α) across the step's edge: for a
// data-graph edge, by each neighbor w of v with an unused color (Figure 4/6
// Procedure 1); for an annotated edge, by each child entry incident to v
// whose signature meets α exactly at χ(v) (Figure 7 EdgeJoin). Under the DB
// order constraint, only vertices ranking below u extend the walk.
//
// The books are kept per (run, neighbour) pair, not per entry: the pair's
// len(run) operations go onto the load, and towards the next cancellation
// poll, in one addition, and the neighbour's rank is read once. A run is a
// vertex's entries as table.Rows serves them: a start-free walk's source is
// pending, and its runs are its box rows. Where every one of those is
// boxed, a data edge is pulled instead (pullEdge).
func (s *solver) edgeJoin(cur *engine.Sharded, spec pathStart, st pathStep, pend bool) *engine.Sharded {
	out := s.newTable(spec)
	slot := slotOf(st.record)
	if st.edgeAnn == nil {
		defer s.tr.Start(PhasePathJoin)()
		// An entry sums the entries of its end's neighbours.
		var ok bool
		if out.Max, ok = s.fits("edgeJoin", cur.Max, s.deg); !ok {
			return out
		}
		if spec.free && s.pullEdge(cur, out) {
			return s.finish(out, pend)
		}
		s.be.Step(out, func(w int, to *engine.Lanes) {
			var load int64
			var poll int
			src := cur.Shard(w).Rows(s.aborted)
			defer src.Close()
		scan:
			for run := src.Next(); len(run) > 0; run = src.Next() {
				for _, nb := range s.g.Neighbors(run[0].V()) {
					load += int64(len(run))
					if s.canceledAfter(&poll, len(run)) {
						break scan
					}
					cn, rank, dst := s.colorOf(nb), s.g.Rank(nb), to.At(nb)
					for r := range run {
						k := &run[r]
						if spec.ordered && s.g.Rank(k.U()) <= rank {
							continue
						}
						if !k.S.Disjoint(cn) {
							continue
						}
						dst.AddEnt(slot.ent(k.U(), nb, k.XY&slot.keep, k.S.Union(cn), k.C))
					}
				}
			}
			s.be.AddLoad(w, load)
		})
		return s.finish(out, pend)
	}
	// groupBinary runs (and traces) its own supersteps; span only ours.
	byFrom := s.groupBinary(st.edgeAnn, st.edgeFromFirst)
	defer s.tr.Start(PhasePathJoin)()
	// An entry sums, over the vertices the child joins its end to, the
	// products of the splits of its signature at that vertex's colour.
	ha, hb := sigSize(cur, s.be.P()), sigSize(byFrom, s.be.P())
	var ok bool
	if out.Max, ok = s.fits("edgeJoin", cur.Max, byFrom.Max, uint64(s.g.N()), choose(ha+hb-2, ha-1)); !ok {
		return out
	}
	s.be.Step(out, func(w int, to *engine.Lanes) {
		var load int64
		var poll int
		src, edges := cur.Shard(w).Rows(s.aborted), byFrom.Shard(w).Rows(s.aborted)
		defer src.Close()
		defer edges.Close()
	scan:
		for run := src.Next(); len(run) > 0; run = src.Next() {
			v := run[0].V()
			cv := s.colorOf(v)
			for _, e := range edges.At(v) {
				load += int64(len(run))
				if s.canceledAfter(&poll, len(run)) {
					break scan
				}
				end := e.U()
				rank, dst := s.g.Rank(end), to.At(end)
				for r := range run {
					k := &run[r]
					if spec.ordered && s.g.Rank(k.U()) <= rank {
						continue
					}
					// The walk and the child share exactly the query node at v.
					if k.S.Inter(e.S) != cv {
						continue
					}
					dst.AddEnt(slot.ent(k.U(), end, k.XY&slot.keep, k.S.Union(e.S), k.C*e.C))
				}
			}
		}
		s.be.AddLoad(w, load)
	})
	return s.finish(out, pend)
}

// edgePull is a start-free walk's data-edge step in pull form: the owner of
// each vertex v sums v's neighbours' rows of src — size-h signatures, every
// shard an open box or empty — into v's row of size-(h+1) ones. A first
// edge pulls from no table: every vertex's row is then the one count 1
// (h = 1), and its sum reads colours alone. The sum is bucketed by colour:
// each neighbour u's row is added whole, its C(k−1, h−1) cells
// contiguously, into the bucket of χ(u), and each bucket then goes into v's
// row once, through ShiftsOf(k, h)[χ(u)][χ(v)] — at most k−1 shifts a
// vertex, where a shift per neighbour took deg(v). A neighbour of v's own
// colour extends nothing and is not added. Load is charged as the push
// form charges it: each count of v's own row once per neighbour. A
// neighbour row read from another partition is a message, whatever its
// colour.
type edgePull struct {
	src    *engine.Sharded
	shifts [][]sig.Shift // ShiftsOf(k, h)
	up     *sig.Own      // OwnOf(k, h+1): the rows the step writes
	width  int           // C(k−1, h−1): a row of src
	cells  [][]uint64    // each partition's shard of src, its box's cells (table.Flat.Cells)
	los    []uint32      // each partition's first vertex
}

// edgePull returns the pull of the data edge after src (nil: a first
// edge), and false where the step cannot pull: a shard of src holds entries
// outside an open box (one over boxCap), or no shard has a box open, or
// src's signatures hold every colour, so that none extends.
func (s *solver) edgePull(src *engine.Sharded) (edgePull, bool) {
	e := edgePull{src: src}
	h := 1
	if src != nil {
		var rk *sig.Own
		e.cells, e.los = make([][]uint64, s.be.P()), make([]uint32, s.be.P())
		for w := range e.cells {
			sh := src.Shard(w)
			if !sh.Boxed() {
				return edgePull{}, false
			}
			e.los[w], _ = s.be.Range(w)
			if e.cells[w] = sh.Cells(); rk == nil {
				_, rk = sh.Row(e.los[w])
			}
		}
		if rk == nil {
			return edgePull{}, false
		}
		h = rk.Size()
	}
	if h == s.k {
		return edgePull{}, false
	}
	e.shifts, e.up, e.width = sig.ShiftsOf(s.k, h), sig.OwnOf(s.k, h+1), int(choose(s.k-1, h-1))
	return e, true
}

// row returns u's row of src, nil if it has none; from routes u to its
// partition.
func (e *edgePull) row(from *engine.Lanes, u uint32) []uint64 {
	w := from.Owner(u)
	cells := e.cells[w]
	if cells == nil {
		return nil
	}
	return cells[int(u-e.los[w])*e.width:][:e.width]
}

// pullTask is one partition's share of an edgePull: its buckets, a row of
// width cells per colour (a first edge needs none), and its books.
type pullTask struct {
	edgePull
	s       *solver
	from    *engine.Lanes
	lo, hi  uint32
	buckets table.Scratch
	first   [sig.MaxRankedColors][]uint64 // a colour's first neighbour row at the vertex being summed
	load    int64
	sent    int // rows read from other partitions
	poll    int
}

func (e edgePull) task(s *solver, w int, from *engine.Lanes) pullTask {
	t := pullTask{edgePull: e, s: s, from: from}
	t.lo, t.hi = s.be.Range(w)
	if e.src != nil {
		t.buckets = table.BorrowWords(s.k * e.width)
	}
	return t
}

func (t *pullTask) close() { t.buckets.Return() }

// sum adds v's row of the step into row, which is zero, and reports false
// once the run is canceled.
func (t *pullTask) sum(v uint32, row []uint64) bool {
	colors, from := t.s.colors, t.from
	nbrs, cv := t.s.g.Neighbors(v), colors[v]
	if t.src == nil { // a first edge: each neighbour of another colour is one count
		t.load += int64(len(nbrs))
		if t.s.canceledAfter(&t.poll, len(nbrs)) {
			return false
		}
		for _, u := range nbrs {
			if cu := colors[u]; cu != cv {
				row[t.up.Pos(sig.Of(cv).Add(cu), cv)]++
			}
		}
		return true
	}
	if own := t.row(from, v); own != nil {
		t.load += int64(table.NonZero(own) * len(nbrs))
	}
	// A colour's first neighbour row is kept where it lies; its bucket opens
	// at the second, so a colour with one neighbour costs one shift, as a
	// shift per neighbour did.
	b, w, first := t.buckets.Words, t.width, &t.first
	var one, more uint32 // the colours with a neighbour row; those with two or more
	for _, u := range nbrs {
		src := t.row(from, u)
		if t.s.canceledAfter(&t.poll, len(src)) {
			return false
		}
		if src == nil {
			continue
		}
		if u < t.lo || u >= t.hi {
			t.sent++
		}
		cu := colors[u]
		bit := uint32(1) << cu
		dst := b[int(cu)*w:][:len(src)]
		switch {
		case cu == cv:
		case more&bit != 0:
			for i, c := range src {
				dst[i] += c
			}
		case one&bit != 0:
			for i, c := range first[cu][:len(src)] {
				dst[i] = c + src[i]
			}
			more |= bit
		default:
			first[cu] = src
			one |= bit
		}
	}
	for ; one != 0; one &= one - 1 {
		cu := bits.TrailingZeros32(one)
		src := first[cu]
		if more&(1<<cu) != 0 {
			src = b[cu*w:][:w]
		}
		sh := t.shifts[cu][cv]
		at := sh.To[:len(sh.From)]
		for i, j := range sh.From {
			row[at[i]] += src[j]
		}
	}
	return true
}

// pullEdge builds out, the table of a start-free walk's data-edge step
// after src (nil: the walk's first edge), in pull form (edgePull): each
// partition's task writes its rows (pullRows) and returns the rows it read
// from other partitions. It reports false, building nothing, where the step
// cannot pull (edgePull, Backend.Pull); the step then pushes.
func (s *solver) pullEdge(src, out *engine.Sharded) bool {
	e, ok := s.edgePull(src)
	if !ok {
		return false
	}
	return s.be.Pull(out, src, func(w int, to *table.Flat, from *engine.Lanes) int {
		t := e.task(s, w, from)
		defer t.close()
		pullRows(to, t.lo, t.hi, e.up, s.colors, t.sum)
		s.be.AddLoad(w, t.load)
		return t.sent
	})
}

// pullNode is a start-free walk's step over a data edge into a node
// annotation, ann, after src (nil: the walk's first edge), as one pulled
// superstep: at each vertex v the edge's row is summed into a task's
// scratch (edgePull) and at once combined with the child's row at v
// (freeNode), and only the product is written (pullRows). The edge's table
// is never built. Bounds, load and messages are those of the two steps it
// fuses: edgeJoin's bound is checked, then nodeJoin's on it, and the
// output's is measured from the products' rows as nodeJoin measures it.
//
// It returns nil, building nothing, where the edge cannot pull — the caller
// then builds the edge's table and joins it (extend) — and where some
// partition's edge rows would not fit a box while the product's would: the
// two steps write such a partition's rows only if the edge holds a count
// there, which is not known before the pull.
func (s *solver) pullNode(src *engine.Sharded, spec pathStart, ann *decomp.Block) *engine.Sharded {
	e, ok := s.edgePull(src)
	if !ok {
		return nil
	}
	child := s.tables[ann]
	ha, hb := e.up.Size(), sigSize(child, s.be.P())
	if hb > 0 {
		for w := 0; w < s.be.P(); w++ {
			lo, hi := s.be.Range(w)
			if !table.BoxFits(int(hi-lo), e.up) && table.BoxFits(int(hi-lo), sig.OwnOf(s.k, ha+hb-1)) {
				return nil
			}
		}
	}
	out := s.newTable(spec)
	defer s.tr.Start(PhasePathJoin)()
	edgeMax, pairs := s.deg, choose(ha+hb-2, ha-1)
	if src != nil {
		if edgeMax, ok = s.fits("edgeJoin", src.Max, s.deg); !ok {
			return out
		}
	}
	if _, ok = s.fits("nodeJoin", edgeMax, child.Max, pairs); !ok {
		return out
	}
	var boundA, boundB atomic.Uint64
	pulled := s.be.Pull(out, src, func(w int, to *table.Flat, from *engine.Lanes) int {
		t := e.task(s, w, from)
		defer t.close()
		edge := table.BorrowWords(len(e.up.Sigs[0]))
		defer edge.Return()
		a, kid := edge.Words, child.Shard(w)
		hb := kid.SigSize()
		if hb == 0 { // nothing meets: the output's shard stays empty; the edge's books are kept
			for v := t.lo; v < t.hi && t.sum(v, a); v++ {
			}
			s.be.AddLoad(w, t.load)
			return t.sent
		}
		j := s.freeNode(kid, ha, hb)
		defer j.close()
		pullRows(to, t.lo, t.hi, j.up, s.colors, func(v uint32, row []uint64) bool {
			clear(a)
			return t.sum(v, a) && j.meet(row, a, v)
		})
		raise(&boundA, j.ba)
		raise(&boundB, j.bb)
		s.be.AddLoad(w, t.load+j.load)
		return t.sent
	})
	if !pulled {
		out.Release()
		return nil
	}
	out.Max = min(boundA.Load(), edgeMax) * min(boundB.Load(), child.Max) * pairs
	return out
}

// nodeJoin folds a unary child table into the walk at its current end node
// (Figure 7 NodeJoin). Both tables are homed at the owner of v, so the join
// is communication-free, and at each v it is one product of two own rows
// (combine): the child's row at v with the walk's — for a start-free walk,
// its row at v, and the product is v's row of the output, written whole
// (pullRows, freeNode); for a walk with a start, each (U, XY) group of v's
// run, whose entries are the cells of such a row that hold a count, and the
// product's cells are that group's entries. Either table may be pending — a
// start-free walk's edge table is, where it is built at all (pullNode), and
// so is a leaf block's output — and an open box is read where it lies, any
// other form a vertex's run at a time (ownRows). Load is, at each v or
// group, the pairs of a walk count and a child count, whether they meet or
// not: NonZero(a)·NonZero(b).
func (s *solver) nodeJoin(cur *engine.Sharded, spec pathStart, ann *decomp.Block, pend bool) *engine.Sharded {
	out := s.newTable(spec)
	child := s.tables[ann]
	defer s.tr.Start(PhasePathJoin)()
	// An output cell sums the products of its pairs (sig.Pairs).
	ha, hb := sigSize(cur, s.be.P()), sigSize(child, s.be.P())
	pairs := choose(ha+hb-2, ha-1)
	var ok bool
	if out.Max, ok = s.fits("nodeJoin", cur.Max, child.Max, pairs); !ok {
		return out
	}
	var boundA, boundB atomic.Uint64 // a start-free walk's: the rows' counts the products read
	s.be.Run(func(w int) {
		walk, kid := cur.Shard(w), child.Shard(w)
		ha, hb := walk.SigSize(), kid.SigSize()
		if ha == 0 || hb == 0 {
			return // nothing meets: the output's shard stays empty
		}
		if spec.free {
			j := s.freeNode(kid, ha, hb)
			defer j.close()
			walks := s.ownRows(walk, ha)
			defer walks.close()
			lo, hi := s.be.Range(w)
			pullRows(out.Shard(w), lo, hi, j.up, s.colors, func(v uint32, row []uint64) bool {
				return j.meet(row, walks.at(v), v)
			})
			raise(&boundA, j.ba)
			raise(&boundB, j.bb)
			s.be.AddLoad(w, j.load)
			return
		}
		var load int64
		var poll int
		kids := s.ownRows(kid, hb)
		defer kids.close()
		pairs, up := sig.PairsOf(s.k, ha, hb), sig.OwnOf(s.k, ha+hb-1)
		rk, sh := sig.OwnOf(s.k, ha), out.Shard(w)
		scratch := table.BorrowWords(len(up.Sigs[0]))
		defer scratch.Return()
		sum := scratch.Words
		clear(sum)
		src := walk.Rows(s.aborted)
		defer src.Close()
		for run := src.Next(); len(run) > 0; run = src.Next() {
			v := run[0].V()
			b := kids.at(v)
			n := len(run) * table.NonZero(b)
			if n == 0 {
				continue
			}
			load += int64(n)
			if s.canceledAfter(&poll, n) {
				break
			}
			c, sigs := s.colors[v], up.Sigs[s.colors[v]]
			for len(run) > 0 {
				g := 1
				for g < len(run) && run[g].VU == run[0].VU && run[g].XY == run[0].XY {
					g++
				}
				for i := range run[:g] {
					combine(sum, b, pairs, int(rk.Pos(run[i].S, c)), run[i].C)
				}
				// The cells the group's pairs reached: the only ones that hold a count.
				for i := range run[:g] {
					at := rk.Pos(run[i].S, c)
					for _, j := range pairs.T[pairs.At[at]:pairs.At[at+1]] {
						if cnt := sum[j]; cnt != 0 {
							sh.AddEnt(table.Ent{VU: run[0].VU, XY: run[0].XY, S: sigs[j], C: cnt})
							sum[j] = 0
						}
					}
				}
				run = run[g:]
			}
		}
		s.be.AddLoad(w, load)
	})
	if spec.free { // measured, and no greater than what was checked
		out.Max = min(boundA.Load(), cur.Max) * min(boundB.Load(), child.Max) * pairs
	}
	return s.finish(out, pend)
}

// combine adds c·b into out through the pairs of position i (sig.Pairs):
// out[T[x]] += c·b[B[x]]. c is the count at position i of an own row a, b
// and out are own rows of the same vertex, and over every i where a holds
// a count it is the product of a and b — the node step's one product of
// two counts.
func combine(out, b []uint64, pairs *sig.Pairs, i int, c uint64) {
	lo, hi := pairs.At[i], pairs.At[i+1]
	from, to := pairs.B[lo:hi], pairs.T[lo:hi]
	to = to[:len(from)]
	for x, j := range from {
		out[to[x]] += c * b[j]
	}
}

// freeNode is one partition's node step of a start-free walk, at a vertex
// at a time: the child's rows there (ownRows), the pair table of the two
// rows' sizes, and the books — load, and the bounds of the counts the
// products read. nodeJoin feeds it the walk's rows as they lie; pullNode
// feeds it each row of an edge as the edge's pull sums it.
type freeNode struct {
	s      *solver
	kids   ownRows
	pairs  *sig.Pairs
	up     *sig.Own // the product's rows
	poll   int
	load   int64
	ba, bb uint64
}

// freeNode reads kid, a shard of a child's table of size-hb signatures, for
// the node step of a walk of size-ha ones.
func (s *solver) freeNode(kid *table.Flat, ha, hb int) freeNode {
	return freeNode{s: s, kids: s.ownRows(kid, hb), pairs: sig.PairsOf(s.k, ha, hb), up: sig.OwnOf(s.k, ha+hb-1)}
}

func (j *freeNode) close() { j.kids.close() }

// meet adds into row, v's row of the output, the product of a, v's row of
// the walk, and the child's row at v, and reports false once the run is
// canceled. v must lie above every vertex met before.
func (j *freeNode) meet(row, a []uint64, v uint32) bool {
	b := j.kids.at(v)
	nb, mb := table.Census(b)
	if nb == 0 {
		return true
	}
	na, ma := table.Census(a)
	n := na * nb
	if n == 0 {
		return true
	}
	j.ba, j.bb = j.ba|ma, j.bb|mb
	j.load += int64(n)
	if j.s.canceledAfter(&j.poll, n) {
		return false
	}
	for i, c := range a {
		if c != 0 {
			combine(row, b, j.pairs, i, c)
		}
	}
	return true
}

// ownRows reads one shard of a walk's or a unary child's table — every
// signature of size h, holding its vertex's colour — as own rows
// (sig.OwnOf), a vertex at a time: an open box's rows where they lie, a
// shard of any other form through table.Rows, polling as track does, each
// vertex's run scattered into one pooled row.
type ownRows struct {
	sh     *table.Flat
	runs   bool // the shard is read through rows, not in place
	rows   table.Rows
	rk     *sig.Own
	row    table.Scratch
	colors []uint8
}

func (s *solver) ownRows(sh *table.Flat, h int) ownRows {
	o := ownRows{sh: sh, rk: sig.OwnOf(s.k, h), colors: s.colors}
	if !sh.Boxed() {
		// Compaction may open the box (boxDense); then it is read in place.
		o.rows = sh.Rows(s.aborted)
		if o.runs = !sh.Boxed(); o.runs {
			o.row = table.BorrowWords(len(o.rk.Sigs[0]))
		} else {
			o.rows.Close()
		}
	}
	return o
}

// at returns v's row, nil if v has none; v must lie in the shard's
// partition and above every vertex read before. The row holds until the
// next call.
func (o *ownRows) at(v uint32) []uint64 {
	if !o.runs {
		row, _ := o.sh.Row(v)
		return row
	}
	run := o.rows.At(v)
	if len(run) == 0 {
		return nil
	}
	row, c := o.row.Words, o.colors[v]
	clear(row)
	for i := range run {
		row[o.rk.Pos(run[i].S, c)] += run[i].C
	}
	return row
}

func (o *ownRows) close() {
	o.rows.Close()
	o.row.Return()
}

type groupKey struct {
	block     *decomp.Block
	fromFirst bool
}

// partners is a root join's table of one home vertex V's entries in the walk
// it indexes, for the one question a root join asks of them. The two walks
// of a root split cover every colour between them and share χ(U) and χ(V)
// alone, so an entry streamed or extended to (V, U) with signature S has
// exactly one partner: the index entry at (V, U) whose signature is
// (Full ∖ S) ∪ {χ(U), χ(V)}. The table finds it in one probe: open
// addressing with linear probing over a power of two of slots, at most half
// of them full, two words a slot — the key U<<32 | S, then the count. A key
// is never 0, since a walk's signature holds its start's colour, so a zero
// key word is an empty slot. Keys are unique: a root walk records no
// vertex, and its table is compacted.
type partners []uint64

// partnerWords is the size in words of the table of a vertex with n index
// entries: two words a slot, and the least power of two of slots that is at
// least 2n — for none, one slot, which is empty, so a probe needs no check
// for an empty table.
func partnerWords(n int) int {
	if n == 0 {
		return 2
	}
	return 4 << bits.Len(uint(n-1))
}

// homeSlot is the slot where key's probe starts in a table of mask+1 slots:
// the top bits of a Fibonacci hash, as many as index them.
func homeSlot(key, mask uint64) uint64 {
	return key * 0x9e3779b97f4a7c15 >> bits.LeadingZeros64(mask)
}

// lay fills p, of partnerWords(len(run)) words, with run: one vertex's
// entries of a compacted root walk table.
func (p partners) lay(run []table.Ent) {
	clear(p)
	mask := uint64(len(p)/2 - 1)
	for j := range run {
		key := uint64(run[j].U())<<32 | uint64(run[j].S)
		i := homeSlot(key, mask)
		for p[2*i] != 0 {
			i = (i + 1) & mask
		}
		p[2*i], p[2*i+1] = key, run[j].C
	}
}

// probe returns the count of (u, s) in the table, 0 if it holds no such
// entry. It inlines into the joins' loops.
func (p partners) probe(u uint32, s sig.Sig) uint64 {
	key, mask := uint64(u)<<32|uint64(s), uint64(len(p)/2-1)
	for i := homeSlot(key, mask); ; i = (i + 1) & mask {
		switch p[2*i] {
		case key:
			return p[2*i+1]
		case 0:
			return 0
		}
	}
}

// runEnd returns where v's run, which begins at j, ends in ents, a shard
// sorted by home vertex.
func runEnd(ents []table.Ent, j int, v uint32) int {
	for j < len(ents) && ents[j].V() == v {
		j++
	}
	return j
}

// partnerIdx holds the partners table of every home vertex of one partition,
// [lo, hi), in one run of pooled words, CSR-style: v's table is
// words[at[v-lo] : at[v-lo+1]]. release gives the words back.
type partnerIdx struct {
	lo      uint32
	at      []uint64 // len = partition size + 1
	words   []uint64
	scratch table.Scratch
}

// indexPartners lays the partners tables of ents, one partition's shard of
// a compacted root walk table: two linear walks, one to size the run of
// words and one to fill it.
func indexPartners(lo, hi uint32, ents []table.Ent) partnerIdx {
	n, total := int(hi-lo), 0
	for r, j := 0, 0; r < n; r++ {
		e := runEnd(ents, j, lo+uint32(r))
		total, j = total+partnerWords(e-j), e
	}
	scratch := table.BorrowWords(n + 1 + total)
	ix := partnerIdx{lo: lo, at: scratch.Words[:n+1], words: scratch.Words[n+1:], scratch: scratch}
	ix.at[0] = 0
	for r, j := 0, 0; r < n; r++ {
		e := runEnd(ents, j, lo+uint32(r))
		ix.at[r+1] = ix.at[r] + uint64(partnerWords(e-j))
		ix.of(lo + uint32(r)).lay(ents[j:e])
		j = e
	}
	return ix
}

// of returns v's table.
func (ix *partnerIdx) of(v uint32) partners {
	r := v - ix.lo
	return ix.words[ix.at[r]:ix.at[r+1]]
}

func (ix *partnerIdx) release() { ix.scratch.Return() }

// groupBinary redistributes a child block's binary table so every entry is
// homed at the owner of its "from" endpoint — the paper's "communication to
// bring the two entries to a common processor" (§7). One superstep rebuilds
// the table with its entries turned round, (to, from, α) homed at from, so
// that a vertex's entries (table.Rows) are the entries leaving it, their U
// the far endpoint; its first reader compacts it. Results are cached per
// (block, orientation) — the DB solver reuses them across its L splits —
// until dropGroups.
func (s *solver) groupBinary(b *decomp.Block, fromFirst bool) *engine.Sharded {
	key := groupKey{block: b, fromFirst: fromFirst}
	if g, ok := s.grouped[key]; ok {
		return g
	}
	child := s.tables[b]
	byFrom := engine.NewSharded(s.be)
	byFrom.Max = child.Max
	end := s.tr.Start(PhaseTableMerge)
	s.be.Step(byFrom, func(w int, to *engine.Lanes) {
		var poll int
		ents := child.Shard(w).Ents()
		for i := range ents {
			e := &ents[i]
			if s.canceled(&poll) {
				break
			}
			from, end := e.U(), e.V()
			if !fromFirst {
				from, end = end, from
			}
			to.At(from).AddEnt(table.BinaryEnt(end, from, e.S, e.C))
		}
	})
	end()
	s.grouped[key] = byFrom
	return byFrom
}

// dropGroups releases cached groupings of a finished block.
func (s *solver) dropGroups(b *decomp.Block) {
	for _, fromFirst := range []bool{true, false} {
		key := groupKey{block: b, fromFirst: fromFirst}
		if g, ok := s.grouped[key]; ok {
			g.Release()
			delete(s.grouped, key)
		}
	}
}
