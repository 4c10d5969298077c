package core

import (
	"math/bits"

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
// no hash map and no index. A join writes each entry
// it produces once, packed as the table stores it (table.Ent: V high and U
// low in one word, X high and Y low in the other), straight into the lane
// of the partition that owns its home vertex (engine.Lanes). The edge
// loops run run-major: for each run of source entries that share their end
// vertex, for each neighbour, the neighbour's colour and lane are found
// once, and the run's entries land there back to back.
//
// A start-free walk's data-edge step is the tree DP's sparse adjacency
// matrix times its vertex × colour-set matrix (engine.NewMatrix), and the
// data graph is undirected, so it runs the other way round (pullFirst,
// pullEdge): the owner of each vertex v sums its neighbours' box rows, each
// shifted by the colour pair (sig.Shift), into v's row of its own box,
// which it writes once (engine.Backend.Pull). No lane, stage or box merge
// is made; load is counted as the push form counts it, and a message is a
// neighbour row read from another partition. It pushes where a source shard
// is not an open box (one over boxCap) or the process does not hold every
// partition (dist).
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
	last := n.step.nodeAnn == nil // the step's edge table is the walk's
	pend = pend || n.free
	edgePend := pend && (last || n.free)
	var t *engine.Sharded
	switch {
	case p == nil && n.startAnn == nil:
		return true // a bare start has no table: its first edge seeds the walk
	case p == nil:
		t = s.lift(n.pathStart)
	case !s.buildPath(p, false) || s.aborted():
		return false
	case p.table == nil:
		t = s.initEdge(n.pathStart, n.step, edgePend)
	default:
		t = s.edgeJoin(p.table, n.pathStart, n.step, edgePend)
	}
	if !last {
		edge := t
		t = s.nodeJoin(edge, n.pathStart, n.step.nodeAnn, pend)
		edge.Release()
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
// start-free walk's data edge is pulled (pullFirst) where the backend can.
func (s *solver) initEdge(spec pathStart, st pathStep, pend bool) *engine.Sharded {
	out := s.newTable(spec)
	slot := slotOf(st.record)
	defer s.tr.Start(PhasePathJoin)()
	if st.edgeAnn == nil {
		if spec.free && s.pullFirst(out) {
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

// pullFirst is initEdge's data-edge step of a start-free walk in pull form:
// the owner of each vertex v counts v's neighbours of other colours by
// colour into v's row. It reads colours alone, which every process holds,
// so it sends nothing. It reports false, building nothing, where the
// backend cannot pull.
func (s *solver) pullFirst(out *engine.Sharded) bool {
	rk := sig.OwnOf(s.k, 2)
	return s.be.Pull(out, nil, func(w int, to *table.Flat, _ *engine.Lanes) int {
		var load int64
		var poll int
		lo, hi := s.be.Range(w)
		pullRows(to, lo, hi, rk, s.colors, func(v uint32, row []uint64) bool {
			nbrs := s.g.Neighbors(v)
			load += int64(len(nbrs))
			if s.canceledAfter(&poll, len(nbrs)) {
				return false
			}
			c := s.colors[v]
			for _, u := range nbrs {
				if cu := s.colors[u]; cu != c {
					row[rk.Pos(sig.Of(c).Add(cu), c)]++
				}
			}
			return true
		})
		s.be.AddLoad(w, load)
		return 0
	})
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

// pullEdge is edgeJoin's data-edge step of a start-free walk in pull form,
// where every shard of cur holds its entries in an open box: the owner of
// each vertex v sums the rows of v's neighbours, each shifted by χ(v)
// (sig.Shift), into v's row of its own (pullRows); each row it reads from
// another partition is a message. It reports false, building nothing, where
// cur has a shard of another form or the backend cannot pull
// (Backend.Pull); edgeJoin then pushes.
func (s *solver) pullEdge(cur, out *engine.Sharded) bool {
	var rk *sig.Own
	for w := 0; w < s.be.P(); w++ {
		sh := cur.Shard(w)
		if !sh.Boxed() {
			return false
		}
		if lo, _ := s.be.Range(w); rk == nil {
			_, rk = sh.Row(lo)
		}
	}
	if rk == nil {
		return false
	}
	h := rk.Size()
	if h == s.k {
		return false // no signature is left to extend: the push form adds nothing
	}
	shifts, up := sig.ShiftsOf(s.k, h), sig.OwnOf(s.k, h+1)
	return s.be.Pull(out, cur, func(w int, to *table.Flat, from *engine.Lanes) (sent int) {
		var load int64
		var poll int
		lo, hi := s.be.Range(w)
		pullRows(to, lo, hi, up, s.colors, func(v uint32, sum []uint64) bool {
			// v's own row, as the push form's source, is what the load
			// counts: each count once per neighbour.
			if row, _ := from.At(v).Row(v); row != nil {
				load += int64(table.NonZero(row) * len(s.g.Neighbors(v)))
			}
			for _, u := range s.g.Neighbors(v) {
				row, _ := from.At(u).Row(u)
				if s.canceledAfter(&poll, len(row)) {
					return false
				}
				if row == nil {
					continue
				}
				if u < lo || u >= hi {
					sent++
				}
				sh := shifts[s.colors[u]][s.colors[v]]
				at := sh.To[:len(sh.From)]
				for i, j := range sh.From {
					sum[at[i]] += row[j]
				}
			}
			return true
		})
		s.be.AddLoad(w, load)
		return sent
	})
}

// nodeJoin folds a unary child table into the walk at its current end node
// (Figure 7 NodeJoin). Both tables are homed at the owner of v, so the join
// is communication-free, and both are read a vertex at a time (table.Rows):
// the walk's run or row at each v, the child's entries at v. Either may be
// pending — a start-free walk's edge table is, and so is a leaf block's
// output — and is then read where it lies, a box cell that holds a count
// standing for the entry a sweep would have made of it, or compacted here,
// polling as track does. Into a start-free walk's table the entries of one
// vertex are row adds once its box is open.
func (s *solver) nodeJoin(cur *engine.Sharded, spec pathStart, ann *decomp.Block, pend bool) *engine.Sharded {
	out := s.newTable(spec)
	child := s.tables[ann]
	defer s.tr.Start(PhasePathJoin)()
	s.be.Run(func(w int) {
		var load int64
		var poll int
		sh := out.Shard(w)
		src, kids := cur.Shard(w).Rows(s.aborted), child.Shard(w).Rows(s.aborted)
		defer src.Close()
		defer kids.Close()
	scan:
		for run := src.Next(); len(run) > 0; run = src.Next() {
			v := run[0].V()
			at := kids.At(v)
			if len(at) == 0 {
				continue
			}
			row, rk := sh.Row(v)
			for r := range run {
				load += int64(len(at))
				if s.canceledAfter(&poll, len(at)) {
					break scan
				}
				nodeCell(sh, row, rk, at, s.colors[v], run[r])
			}
		}
		s.be.AddLoad(w, load)
	})
	return s.finish(out, pend)
}

// nodeCell joins the walk entry k with child, the unary child's entries at
// k's end vertex, whose colour is c: into row, ranked by rk, where the
// output shard sh has its box open (Row), else through AddEnt.
func nodeCell(sh *table.Flat, row []uint64, rk *sig.Own, child []table.Ent, c uint8, k table.Ent) {
	cv := sig.Of(c)
	for i := range child {
		e := &child[i]
		if k.S.Inter(e.S) != cv {
			continue
		}
		if row != nil {
			row[rk.Pos(k.S.Union(e.S), c)] += k.C * e.C
			continue
		}
		sh.AddEnt(table.Ent{VU: k.VU, XY: k.XY, S: k.S.Union(e.S), C: k.C * e.C})
	}
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
