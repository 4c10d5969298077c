package core

import (
	"math/bits"
	"sort"

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
// shard's entries are one dense slice grouped by the home vertex V, so an
// inner loop is a linear scan and the child side is probed through a
// CSR-style index (rowIdx) instead of a hash map. A join writes each entry
// it produces once, packed as the table stores it (table.Ent: V high and U
// low in one word, X high and Y low in the other), straight into the lane
// of the partition that owns its home vertex (engine.Lanes). The edge
// loops run run-major: for each run of source entries that share their end
// vertex, for each neighbour, the neighbour's colour, lane and — in a
// start-free walk's table, a vertex×signature matrix (engine.NewMatrix) —
// row of counts are found once, and the run's entries land there back to
// back: as row adds where the lane's box is open (table.Flat.Row), packed
// entries where it is not.

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
// wants neither order nor folded counts may ask for that, or one that reads
// a box as it lies: a root cycle's join (split.sides) and a leaf block's
// projection (solveLeaf). A start-free walk's edge table whose step goes on
// to a nodeJoin is left pending too: that join, its one reader, reads the
// box rows in place.
func (s *solver) buildPath(n *walk, pend bool) bool {
	if n.table != nil {
		return true
	}
	p := n.parent
	last := n.step.nodeAnn == nil // the step's edge table is the walk's
	edgePend := pend
	if !last {
		edgePend = n.free
	}
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
		return engine.NewMatrix(s.be, s.k, true)
	}
	return engine.NewSharded(s.be)
}

// runOf returns the end of the run of entries starting at ents[i] that
// share its V: a shard is sorted by V first.
func runOf(ents []table.Ent, i int) int {
	v := ents[i].V()
	for i++; i < len(ents) && ents[i].V() == v; i++ {
	}
	return i
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
// start-free walk's data edge is a row add where its lane has a box open,
// as in edgeJoin.
func (s *solver) initEdge(spec pathStart, st pathStep, pend bool) *engine.Sharded {
	out := s.newTable(spec)
	slot := slotOf(st.record)
	defer s.tr.Start(PhasePathJoin)()
	if st.edgeAnn == nil {
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
					dst := to.At(v)
					if row, rk := dst.Row(v); row != nil { // a start-free walk's open box
						row[rk.Rank[su.Add(s.colors[v])]]++
						dst.Added(1)
						continue
					}
					dst.AddEnt(slot.ent(start, v, slot.keep, su.Add(s.colors[v]), 1))
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

// lift turns the unary table (u,α) of the child annotating the start node
// into the degenerate walk table (u,u,α), seeding a path that includes that
// annotation.
func (s *solver) lift(spec pathStart) *engine.Sharded {
	child := s.tables[spec.startAnn]
	out := s.newTable(spec)
	defer s.tr.Start(PhasePathJoin)()
	s.be.Run(func(w int) {
		sh := out.Shard(w)
		ents := child.Shard(w).Ents()
		for i := range ents {
			e := &ents[i]
			sh.AddEnt(table.BinaryEnt(spec.startKey(e.U()), e.U(), e.S, e.C))
		}
	})
	return s.track(out)
}

// edgeJoin extends every walk entry (u,v,…,α) across the step's edge: for a
// data-graph edge, by each neighbor w of v with an unused color (Figure 4/6
// Procedure 1); for an annotated edge, by each child entry incident to v
// whose signature meets α exactly at χ(v) (Figure 7 EdgeJoin). Under the DB
// order constraint, only vertices ranking below u extend the walk.
//
// The books are kept per (run, neighbour) pair, not per entry: the pair's
// len(run) operations go onto the load, and towards the next cancellation
// poll, in one addition, and the neighbour's rank is read once. So is its
// row, where the walk is start-free and its lane has a box open: the run's
// entries are then row adds (table.Flat.Row) — a start-free walk records
// nothing and is never ordered, so the row's vertex and a signature are
// the whole key.
func (s *solver) edgeJoin(cur *engine.Sharded, spec pathStart, st pathStep, pend bool) *engine.Sharded {
	out := s.newTable(spec)
	slot := slotOf(st.record)
	if st.edgeAnn == nil {
		defer s.tr.Start(PhasePathJoin)()
		s.be.Step(out, func(w int, to *engine.Lanes) {
			var load int64
			var poll int
			ents := cur.Shard(w).Ents()
		scan:
			for i, j := 0, 0; i < len(ents); i = j {
				j = runOf(ents, i)
				run := ents[i:j]
				for _, nb := range s.g.Neighbors(run[0].V()) {
					load += int64(len(run))
					if s.canceledAfter(&poll, len(run)) {
						break scan
					}
					cn, rank, dst := s.colorOf(nb), s.g.Rank(nb), to.At(nb)
					if row, rk := dst.Row(nb); row != nil {
						adds := 0
						for r := range run {
							if k := &run[r]; k.S.Disjoint(cn) {
								row[rk.Rank[k.S.Union(cn)]] += k.C
								adds++
							}
						}
						dst.Added(adds)
						continue
					}
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
	grouped := s.groupBinary(st.edgeAnn, st.edgeFromFirst)
	defer s.tr.Start(PhasePathJoin)()
	s.be.Step(out, func(w int, to *engine.Lanes) {
		var load int64
		var poll int
		idx := grouped[w]
		ents := cur.Shard(w).Ents()
	scan:
		for i, j := 0, 0; i < len(ents); i = j {
			j = runOf(ents, i)
			run := ents[i:j]
			v := run[0].V()
			cv := s.colorOf(v)
			for _, e := range idx.at(v) {
				load += int64(len(run))
				if s.canceledAfter(&poll, len(run)) {
					break scan
				}
				end := e.U()
				rank, dst := s.g.Rank(end), to.At(end)
				if row, rk := dst.Row(end); row != nil {
					adds := 0
					for r := range run {
						if k := &run[r]; k.S.Inter(e.S) == cv {
							row[rk.Rank[k.S.Union(e.S)]] += k.C * e.C
							adds++
						}
					}
					dst.Added(adds)
					continue
				}
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

// nodeJoin folds a unary child table into the walk at its current end node
// (Figure 7 NodeJoin). Both tables are homed at the owner of v, so the join
// is communication-free. The child index is built once per block by
// groupUnary and reused across every split that folds the same annotation.
//
// A start-free walk's edge table is read by this join alone, and is left
// pending for it (buildPath): a shard with a box open is read row by row
// where it lies, a cell that holds a count standing for the entry a sweep
// would have made of it; a shard whose box never opened is compacted here,
// polling as track does, and read as entries. Into a start-free walk's
// table the entries of one vertex are row adds once its box is open.
func (s *solver) nodeJoin(cur *engine.Sharded, spec pathStart, ann *decomp.Block, pend bool) *engine.Sharded {
	out := s.newTable(spec)
	// groupUnary runs (and traces) its own superstep; span only ours.
	grouped := s.groupUnary(ann)
	defer s.tr.Start(PhasePathJoin)()
	s.be.Run(func(w int) {
		idx := grouped[w]
		var load int64
		var poll int
		src, sh := cur.Shard(w), out.Shard(w)
		lo, hi := s.be.Range(w)
		if _, srk := src.Row(lo); srk != nil {
			for v := lo; v < hi && !s.stop.Load(); v++ {
				child := idx.at(v)
				if len(child) == 0 {
					continue
				}
				cells, _ := src.Row(v)
				row, rk := sh.Row(v)
				for j, c := range cells {
					if c == 0 {
						continue
					}
					load += int64(len(child))
					if s.canceledAfter(&poll, len(child)) {
						break
					}
					nodeCell(sh, row, rk, child, s.colorOf(v), table.BinaryEnt(table.None, v, srk.Sigs[j], c))
				}
			}
		} else if _, ok := src.Build(s.aborted); ok {
			ents := src.Ents()
		scan:
			for i, j := 0, 0; i < len(ents); i = j {
				j = runOf(ents, i)
				v := ents[i].V()
				child := idx.at(v)
				row, rk := sh.Row(v)
				for r := i; r < j; r++ {
					load += int64(len(child))
					if s.canceledAfter(&poll, len(child)) {
						break scan
					}
					nodeCell(sh, row, rk, child, s.colorOf(v), ents[r])
				}
			}
		}
		s.be.AddLoad(w, load)
	})
	return s.finish(out, pend)
}

// nodeCell joins the walk entry k with child, the unary child's entries at
// k's end vertex, whose colour is cv: into row, ranked by rk, where the
// output shard sh has its box open (Row), else through AddEnt.
func nodeCell(sh *table.Flat, row []uint64, rk *sig.Ranking, child []table.Ent, cv sig.Sig, k table.Ent) {
	adds := 0
	for i := range child {
		e := &child[i]
		if k.S.Inter(e.S) != cv {
			continue
		}
		if row != nil {
			row[rk.Rank[k.S.Union(e.S)]] += k.C * e.C
			adds++
			continue
		}
		sh.AddEnt(table.Ent{VU: k.VU, XY: k.XY, S: k.S.Union(e.S), C: k.C * e.C})
	}
	if adds > 0 {
		sh.Added(adds)
	}
}

type groupKey struct {
	block     *decomp.Block
	fromFirst bool
}

// rowIdx indexes one partition's shard of a child table by the vertex the
// shard is sorted on, CSR-style: the entries of vertex v are
// ents[rows[v-lo] : rows[v-lo+1]]. ents is the shard's own storage, so the
// index costs one offset per vertex and no copy; it dies with the table.
type rowIdx struct {
	lo   uint32
	rows []int32 // len = partition size + 1
	ents []table.Ent
}

// at returns the entries indexed under vertex v, which must lie in the
// partition's vertex range.
func (ix *rowIdx) at(v uint32) []table.Ent {
	i := v - ix.lo
	return ix.ents[ix.rows[i]:ix.rows[i+1]]
}

// indexRows builds the row index of every shard of t, whose entries are
// homed — and therefore sorted — by the vertex home extracts: a single
// linear walk per partition, no redistribution and no sort. The indexes and
// their offsets are two allocations, whatever the partition count:
// partition w's n+1 offsets start at lo+w.
func (s *solver) indexRows(t *engine.Sharded, home func(*table.Ent) uint32) []*rowIdx {
	g := make([]*rowIdx, s.be.P())
	idx := make([]rowIdx, len(g))
	rows := make([]int32, s.g.N()+len(g))
	defer s.tr.Start(PhaseTableMerge)()
	s.be.Run(func(w int) {
		lo, hi := s.be.Range(w)
		n := int(hi - lo)
		ix := &idx[w]
		*ix = rowIdx{lo: lo, rows: rows[int(lo)+w:][:n+1], ents: t.Shard(w).Ents()}
		j := 0
		for r := 0; r < n; r++ {
			ix.rows[r] = int32(j)
			for v := lo + uint32(r); j < len(ix.ents) && home(&ix.ents[j]) == v; j++ {
			}
		}
		ix.rows[n] = int32(j)
		g[w] = ix
	})
	return g
}

// groupIdx indexes one sorted shard of a walk table by the (V, U) pair its
// entries are grouped under — rowIdx taken one level down, for the cycle
// join, which meets two walks on both their ends. groups[rows[v-lo] :
// rows[v-lo+1]] are the groups homed at vertex v, U ascending, one word
// each: the group's U in the high half, the offset of its first entry in
// the low. A group's entries end where the next group's begin, the last
// one's at a sentinel word. Rows and groups are one run of pooled words
// (table.BorrowWords) that release gives back, before the task that built
// the index ends.
//
// A root join's index also gives every dense group (rowed) a partner row:
// the group's counts laid out by signature, so that the one partner an entry
// can have is one load (partner) instead of a binary search (withSig). Every
// signature of a root group holds χ(U) and χ(V) and has the shard's size h,
// so a row has width = C(k−2, h−2) cells, one per signature with the two
// fixed bits dropped (drop). Other groups are searched. at and cells are a
// second run of pooled words, given back by release too; a shard with no
// dense group borrows none.
type groupIdx struct {
	lo      uint32
	rows    []uint64 // len = partition size + 1
	groups  []uint64 // len = groups + 1
	ents    []table.Ent
	scratch table.Scratch

	at    []uint64     // per group: where its row starts in cells, or noRow
	cells []uint64     // the dense groups' rows, width cells each
	rk    *sig.Ranking // of the size-(h−2) signatures over k−2 colours
	full  sig.Sig      // all k−2 colours
	rowed table.Scratch
}

// noRow marks a group that is searched instead.
const noRow = ^uint64(0)

// rowed says whether a root group of n entries gets a partner row of width
// cells. A row is laid out once and read once per entry streamed against
// the group, and a small group has few: on cycle5-90k (glet2, width 3)
// every group holds 1–3 entries and 1.3–1.5 entries stream per group, and a
// row read that rarely costs more than the one or two probes a search of
// the group takes (1.3–1.9× per streamed entry at one read per group). So a
// row needs a group a search would probe 3 times: 4 entries or more. 4·n ≥
// width keeps a row within the group's 32-byte entries, so the index at
// most doubles; on cycle10-3k (width 56) that is the rule that binds.
func rowed(n, width uint64) bool { return n >= 4 && 4*n >= width }

// indexGroups indexes ents, a shard sorted by (V, U) whose home vertices lie
// in [lo, hi): one linear walk. Given the colouring of a root join over k
// colours, it lays out the dense groups' partner rows as well; given nil, it
// lays out none.
func indexGroups(lo, hi uint32, ents []table.Ent, colors []uint8, k int) groupIdx {
	n := int(hi - lo)
	scratch := table.BorrowWords(n + 1 + len(ents) + 1) // no more groups than entries
	ix := groupIdx{lo: lo, rows: scratch.Words[:n+1], groups: scratch.Words[n+1:], ents: ents, scratch: scratch}
	g, j := 0, 0
	for r := 0; r < n; r++ {
		ix.rows[r] = uint64(g)
		for v := lo + uint32(r); j < len(ents) && ents[j].V() == v; g++ {
			vu := ents[j].VU
			ix.groups[g] = vu<<32 | uint64(j) // U moves up, V falls off
			for j++; j < len(ents) && ents[j].VU == vu; j++ {
			}
		}
	}
	ix.rows[n] = uint64(g)
	ix.groups[g] = uint64(len(ents))
	ix.groups = ix.groups[:g+1]
	if colors != nil && g > 0 {
		ix.layRows(colors, k)
	}
	return ix
}

// layRows gives every dense group its partner row.
func (ix *groupIdx) layRows(colors []uint8, k int) {
	h := ix.ents[0].S.Size()
	ix.rk, ix.full = sig.RankingOf(k-2, h-2), sig.Full(k-2)
	width := uint64(len(ix.rk.Sigs))
	g := len(ix.groups) - 1
	size := func(i int) uint64 { return uint64(uint32(ix.groups[i+1]) - uint32(ix.groups[i])) }
	dense := 0
	for i := 0; i < g; i++ {
		if rowed(size(i), width) {
			dense++
		}
	}
	if dense == 0 {
		return
	}
	ix.rowed = table.BorrowWords(g + dense*int(width))
	ix.at, ix.cells = ix.rowed.Words[:g], ix.rowed.Words[g:]
	clear(ix.cells)
	next := uint64(0)
	for i := 0; i < g; i++ {
		if !rowed(size(i), width) {
			ix.at[i] = noRow
			continue
		}
		ix.at[i] = next
		grp := ix.ents[uint32(ix.groups[i]):uint32(ix.groups[i+1])]
		need := sig.Of(colors[grp[0].U()]).Union(sig.Of(colors[grp[0].V()]))
		for e := range grp {
			ix.cells[next+uint64(ix.rk.Rank[drop(grp[e].S, need)])] = grp[e].C
		}
		next += width
	}
}

func (ix *groupIdx) release() {
	ix.scratch.Return()
	ix.rowed.Return()
}

// partner returns the count, in group g's row, of the signature that
// completes s to every colour, s being an entry's signature and need its
// {χ(U), χ(V)}; ok is false if g is no group (-1) or has no row. The count
// is 0 if the group has no such entry.
func (ix *groupIdx) partner(g int, s, need sig.Sig) (c uint64, ok bool) {
	if g < 0 || ix.at == nil || ix.at[g] == noRow {
		return 0, false
	}
	return ix.cells[ix.at[g]+uint64(ix.rk.Rank[ix.full&^drop(s, need)])], true
}

// drop removes from s the two colour bits of pair, both of which s holds:
// the bits above each move down. The higher goes first, so the lower is
// still where it was.
func drop(s, pair sig.Sig) sig.Sig {
	hi, lo := uint8(bits.Len32(uint32(pair))-1), uint8(bits.TrailingZeros32(uint32(pair)))
	return dropBit(dropBit(s, hi), lo)
}

func dropBit(s sig.Sig, c uint8) sig.Sig {
	low := sig.Sig(1)<<c - 1
	return s&low | s>>1&^low
}

// groupCursor finds in a groupIdx the group of each entry of a stream. A
// lane's chunks arrive as the edge loops appended them — V repeating while
// U ascends, one (run, neighbour) pair after another — and a sorted shard
// arrives in the index's own order, so the group sought is the one last
// found, or a little past it: the search gallops forward from where the
// last one ended, and goes back to the start of a row only when V changes
// or U falls. Against a sorted stream that is a merge.
type groupCursor struct {
	ix      *groupIdx
	vu      uint64      // the pair last sought
	at, end int         // in ix.groups: where that search ended, where V's row does
	found   []table.Ent // what it found
	g       int         // the group it found, -1 for none
}

func (ix *groupIdx) cursor() groupCursor {
	return groupCursor{ix: ix, vu: ^uint64(0), g: -1} // (None, None) is no entry's pair
}

// seek returns the entries grouped under vu and their group's number, or
// nil and -1 if there are none.
func (c *groupCursor) seek(vu uint64) ([]table.Ent, int) {
	if vu == c.vu {
		return c.found, c.g
	}
	ix := c.ix
	if vu>>32 != c.vu>>32 || vu < c.vu {
		r := uint32(vu>>32) - ix.lo
		c.at, c.end = int(ix.rows[r]), int(ix.rows[r+1])
	}
	c.vu = vu
	// The first group of the row at or after c.at — every group before it
	// has a smaller U than the last one sought — whose U is not below u.
	g, u, i := ix.groups, vu&(1<<32-1), c.at
	if i < c.end && g[i]>>32 < u {
		step := 1
		for i+step < c.end && g[i+step]>>32 < u {
			i += step
			step <<= 1
		}
		lo, hi := i+1, min(i+step, c.end)
		lo += sort.Search(hi-lo, func(k int) bool { return g[lo+k]>>32 >= u })
		i = lo
	}
	c.at, c.found, c.g = i, nil, -1
	if i < c.end && g[i]>>32 == u {
		c.found, c.g = ix.ents[uint32(g[i]):uint32(g[i+1])], i
	}
	return c.found, c.g
}

// withSig returns the entries of grp — one at most — whose signature is
// want. grp must be one (V, U) group of a table that records no vertices:
// its entries then differ in their signatures alone and ascend with them.
// A root join searches the groups too sparse for a partner row with it.
func withSig(grp []table.Ent, want sig.Sig) []table.Ent {
	i := sort.Search(len(grp), func(i int) bool { return grp[i].S >= want })
	if i < len(grp) && grp[i].S == want {
		return grp[i : i+1]
	}
	return nil
}

// regrouped is a binary child table rebuilt at the owners of its "from"
// endpoints, with the row index over it.
type regrouped struct {
	byFrom *engine.Sharded
	idx    []*rowIdx
}

// groupBinary redistributes a child block's binary table so every entry is
// indexed, at the owner of its "from" endpoint, by that endpoint — the
// paper's "communication to bring the two entries to a common processor"
// (§7). One superstep rebuilds the table with its entries turned round,
// (to, from, α) homed at from, and the rebuilt shards are indexed where
// they lie: a row holds the entries leaving one vertex, their U the far
// endpoint. Results are cached per (block, orientation) — the DB solver
// reuses them across its L splits — until dropGroups.
func (s *solver) groupBinary(b *decomp.Block, fromFirst bool) []*rowIdx {
	key := groupKey{block: b, fromFirst: fromFirst}
	if g, ok := s.grouped[key]; ok {
		return g.idx
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
	g := regrouped{byFrom: byFrom, idx: s.indexRows(byFrom, (*table.Ent).V)}
	s.grouped[key] = g
	return g.idx
}

// groupUnary builds (and caches) the row index of a unary child table used
// by nodeJoin: entries are already homed at the owner of their boundary
// vertex U and sorted by it. The cache is released by dropGroups when the
// block's parent is solved.
func (s *solver) groupUnary(b *decomp.Block) []*rowIdx {
	if g, ok := s.unary[b]; ok {
		return g
	}
	g := s.indexRows(s.tables[b], (*table.Ent).U)
	s.unary[b] = g
	return g
}

// dropGroups releases cached groupings of a finished block.
func (s *solver) dropGroups(b *decomp.Block) {
	for _, fromFirst := range []bool{true, false} {
		key := groupKey{block: b, fromFirst: fromFirst}
		if g, ok := s.grouped[key]; ok {
			g.byFrom.Release()
			delete(s.grouped, key)
		}
	}
	delete(s.unary, b)
}
