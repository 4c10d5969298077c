package core

import (
	"fmt"
	"time"

	"repro/internal/decomp"
	"repro/internal/engine"
	"repro/internal/sig"
	"repro/internal/table"
)

// This file implements the cycle-block solvers (§5). A cycle of length L is
// split at two positions into the clockwise walk P+ and the counter-
// clockwise walk P− (both start→end); their tables are built by the path
// machinery and joined on the shared endpoints. PS performs one split at
// the boundary nodes (Figure 4); DB performs L splits — one per candidate
// highest position h, at (h, h⊕⌊L/2⌋) — with the high-starting order
// constraint, and aggregates (Figure 6, Equation 1). Annotation convention
// (§5.2): P+ includes only the end node's annotation, P− only the start's.
//
// The splits' 2L walks go into the block's walk trie (path.go) before the
// first is built, so Equation 1 is evaluated with every distinct walk built
// once; and the terms of a root cycle's sum that join the same two walks
// are equal, so one is joined and counted as many times as it occurs.

// bndLoc says where a boundary node's mapped vertex is found after the
// final join of one split.
type bndLoc int

const (
	locStart  bndLoc = iota // π at the split start: P+ key U
	locEnd                  // π at the split end: P+ key V
	locPlusX                // recorded in P+ key X
	locPlusY                // recorded in P+ key Y
	locMinusX               // recorded in P− key X
	locMinusY               // recorded in P− key Y
)

// split is one (start,end) cycle split with boundary locations resolved.
type split struct {
	plus, minus *walk    // the split's two walks, in the block's trie
	locs        []bndLoc // parallel to block.Boundary
	times       uint64   // how many of the block's splits this one stands for
}

// solveCycle computes the projection table of a non-root cycle block:
// unary for one boundary node, binary (Boundary[0], Boundary[1]) for two.
func (s *solver) solveCycle(b *decomp.Block) *engine.Sharded {
	var out *engine.Sharded
	if len(b.Boundary) == 1 {
		out = engine.NewMatrix(s.be, s.k, s.colors, false) // (π(boundary), α) ↦ count
	} else {
		out = engine.NewSharded(s.be)
	}
	s.joinSplits(b, out, nil)
	return s.track(out)
}

// joinSplits joins b's splits in turn, into out or partial as joinSplit
// does. A canceled run stops at the split whose walks could not be built.
func (s *solver) joinSplits(b *decomp.Block, out *engine.Sharded, partial []uint64) {
	for _, sp := range s.splits(b) {
		if !s.joinSplit(b, sp, out, partial) {
			break
		}
	}
	s.walks.release()
}

// sides says which of a split's walks its join streams and which it indexes,
// and whether the streamed one's table may be left pending — built by its
// last superstep and never compacted, or, where that step is a plain data
// edge and the backend can pull, never built: the join takes the step
// itself (joinSplit). It may in a root block, whose join makes a number, if
// this join is all that is still to read it: the walk's table is not built
// yet, no other walk extends it and no other split joins it (one use left),
// and it has a step to be built by. If exactly one walk may pend, it
// streams; if both may or neither, the one with more steps — the larger
// table, as a rule: the index then is the smaller — and of two equally long
// ones P−. The trie decides, nothing else: there is no option.
func (sp split) sides(root bool) (stream, index *walk, pend bool) {
	mayPend := func(n *walk) bool { return root && n.uses == 1 && n.table == nil && n.parent != nil }
	stream, index = sp.minus, sp.plus
	if p, m := mayPend(sp.plus), mayPend(sp.minus); p && !m || p == m && sp.plus.steps() > sp.minus.steps() {
		stream, index = sp.plus, sp.minus
	}
	return stream, index, mayPend(stream)
}

// solveRootCycle computes the total colorful-match count of a root cycle
// block (no boundary nodes, §5.2 end).
func (s *solver) solveRootCycle(b *decomp.Block) uint64 {
	partial := make([]uint64, s.be.P())
	s.joinSplits(b, nil, partial)
	var total uint64
	for _, p := range partial {
		total += p
	}
	return total
}

// solveLeaf computes the unary projection table of a leaf-edge block
// (a,b): a single-edge walk from the leaf node to the boundary node,
// folding in both node annotations, then projected onto π(a) (§5.2). The
// table is left pending: its one reader — the parent's lift or nodeJoin,
// the per-vertex fold or the root's Total — takes it as it lies.
func (s *solver) solveLeaf(b *decomp.Block) *engine.Sharded {
	step := pathStep{edgeAnn: b.EdgeAnn[0], nodeAnn: b.NodeAnn[0]}
	if step.edgeAnn != nil {
		step.edgeFromFirst = step.edgeAnn.Boundary[0] == b.Nodes[1]
	}
	// The projection keeps the walk's end and drops its start, so the walk
	// is start-free: (leaf, boundary) pairs fold into boundary rows in the
	// walk's first table, not here.
	s.walks = walkTrie{}
	defer s.walks.release()
	walk := s.walks.add(pathStart{startAnn: b.NodeAnn[1], free: true}, step)
	out := engine.NewMatrix(s.be, s.k, s.colors, false)
	if !s.buildPath(walk, true) {
		return out
	}
	// Project (π(a), α) out of the walk's keys: local, entries live at
	// owner(V). (None, v, α) ↦ (v, None, α) keeps the partition, the rows and
	// the signatures, so the walk's table is left pending and a shard's open
	// box moves over whole, its cells the entries projected; a shard whose
	// box never opened is read a vertex at a time (table.Rows), compacted
	// first, polling as track does, and its entries are added one by one.
	defer s.tr.Start(PhaseLeafJoin)()
	s.be.Run(func(w int) {
		sh, src := out.Shard(w), walk.table.Shard(w)
		var load int64
		var poll int
		if sh.MoveBox(src) {
			lo, hi := s.be.Range(w)
			for v := lo; v < hi; v++ { // the cells that hold a count: the entries projected
				row, _ := sh.Row(v)
				load += int64(table.NonZero(row))
			}
		} else {
			rows := src.Rows(s.aborted)
		scan:
			for run := rows.Next(); len(run) > 0; run = rows.Next() {
				for i := range run {
					load++
					if s.canceled(&poll) {
						break scan
					}
					sh.AddEnt(table.UnaryEnt(run[i].V(), run[i].S, run[i].C))
				}
			}
			rows.Close()
		}
		s.be.AddLoad(w, load)
	})
	walk.done()
	return out
}

// splits enumerates the algorithm's cycle splits — one for PS, L for DB —
// with their walks laid into a fresh trie, s.walks.
func (s *solver) splits(b *decomp.Block) []split {
	s.walks = walkTrie{}
	l := b.Len()
	pos := make(map[int]int, l) // query node id → cycle position
	for i, n := range b.Nodes {
		pos[n] = i
	}
	if s.alg == PS || s.alg == PSEven {
		// PS splits at the boundary nodes (§5.1); with fewer than two
		// boundary nodes, at the first boundary (or position 0) and its
		// diagonal. PSEven always splits evenly, letting boundary nodes
		// fall inside the walks (their mappings get recorded), which evens
		// the walk lengths but keeps the unpruned search.
		start := 0
		if len(b.Boundary) > 0 {
			start = pos[b.Boundary[0]]
		}
		end := (start + l/2) % l
		if s.alg == PS && len(b.Boundary) == 2 {
			end = pos[b.Boundary[1]]
		}
		return []split{s.makeSplit(b, start, end, false)}
	}
	// DB: every position is a candidate highest node (Equation 1).
	splits := make([]split, 0, l)
	first := make(map[[2]*walk]int, l) // (P+, P−) → the first split that joins them
	for h := 0; h < l; h++ {
		sp := s.makeSplit(b, h, (h+l/2)%l, true)
		pair := [2]*walk{sp.plus, sp.minus}
		if i, seen := first[pair]; seen && len(b.Boundary) == 0 {
			// No boundary mapping tells the two splits' products apart.
			splits[i].times++
			sp.plus.uses--
			sp.minus.uses--
			continue
		}
		first[pair] = len(splits)
		splits = append(splits, sp)
	}
	return splits
}

// makeSplit lays the P+ (clockwise) and P− (counter-clockwise) walks for
// splitting cycle b at positions (start, end) into s.walks, and resolves
// where each boundary node's mapping will be found. Boundary nodes that fall
// strictly inside a walk are recorded in its X then Y key fields, in walk
// order — this uniformly realizes the six §5.1 configurations.
func (s *solver) makeSplit(b *decomp.Block, start, end int, ordered bool) split {
	l := b.Len()
	isBoundary := make(map[int]bool, len(b.Boundary))
	for _, n := range b.Boundary {
		isBoundary[n] = true
	}
	locs := make([]bndLoc, len(b.Boundary))
	locOf := func(node int, loc bndLoc) {
		for i, n := range b.Boundary {
			if n == node {
				locs[i] = loc
			}
		}
	}
	locOf(b.Nodes[start], locStart)
	locOf(b.Nodes[end], locEnd)

	layWalk := func(dir int, isPlus bool) *walk {
		from := pathStart{ordered: ordered}
		if !isPlus {
			from.startAnn = b.NodeAnn[start] // P− owns the start annotation
		}
		var steps []pathStep
		nextRecord := 1
		for p := start; p != end; {
			np := ((p+dir)%l + l) % l
			var st pathStep
			// Cycle edge between positions p and np: EdgeAnn[i] annotates
			// (Nodes[i], Nodes[i+1]); going clockwise that's index p, going
			// counter-clockwise it's index np.
			if dir == 1 {
				st.edgeAnn = b.EdgeAnn[p]
			} else {
				st.edgeAnn = b.EdgeAnn[np]
			}
			if st.edgeAnn != nil {
				st.edgeFromFirst = st.edgeAnn.Boundary[0] == b.Nodes[p]
			}
			if np != end {
				st.nodeAnn = b.NodeAnn[np]
				if isBoundary[b.Nodes[np]] {
					st.record = nextRecord
					nextRecord++
					if isPlus {
						locOf(b.Nodes[np], []bndLoc{locPlusX, locPlusY}[st.record-1])
					} else {
						locOf(b.Nodes[np], []bndLoc{locMinusX, locMinusY}[st.record-1])
					}
				}
			} else if isPlus {
				st.nodeAnn = b.NodeAnn[end] // P+ owns the end annotation
			}
			steps = append(steps, st)
			p = np
		}
		return s.walks.add(from, steps...)
	}
	return split{plus: layWalk(+1, true), minus: layWalk(-1, false), locs: locs, times: 1}
}

// joinSplit builds the P+ and P− tables of one split — the one the join
// indexes first, the one it streams last, left pending if it may be (sides)
// — and joins them (Figure 4/6 Procedure 2): entries agree on (U,V),
// signatures must intersect exactly in {χ(U), χ(V)}, and products are
// emitted keyed by the block's boundary mappings — into out for
// 1/2-boundary blocks (boundaryJoin), or summed into partial for a root
// cycle. Both tables are homed at the owner of V, so the join itself is
// local; only the output entries travel. It reports false, having joined
// nothing, if the run was canceled before both tables were built.
//
// A root walk that may pend and whose last step is a plain data edge out of
// a built prefix is not built at all where the backend can pull (pullJoin):
// the join takes that step itself, reading the prefix where it lies, and
// the largest table of the trial — the one it would stream — never exists.
// Its prefix's extension use ends with the join, so the prefix is released
// then, not at the block's end. Everywhere else — a process that does not
// hold every partition (dist), a last step over an annotated edge or onto
// an annotated node — the walk is built, pending, and streamed against the
// other's partners tables (streamJoin). The join's span opens once, around
// the form that runs.
func (s *solver) joinSplit(b *decomp.Block, sp split, out *engine.Sharded, partial []uint64) bool {
	stream, index, pend := sp.sides(len(b.Boundary) == 0)
	// A process that does not hold every partition (a dist rank of two or
	// more, or the coordinator) cannot pull: it builds and streams the walk
	// without laying the pull's run index first.
	lo, hi := s.be.Owned()
	pull := pend && stream.pulls() && lo == 0 && int(hi) == s.g.N()
	built := stream
	if pull {
		built = stream.parent // the join takes the walk's last step
	}
	if !s.buildPath(index, false) || !s.buildPath(built, pend && !pull) {
		return false
	}
	defer sp.plus.done()
	defer sp.minus.done()
	begin := time.Now()
	pulled := pull && s.pullJoin(stream, index, partial, sp.times)
	if pull && !pulled {
		// The Pull ran nothing: the step is built after all, in its own
		// span, and the join's begins after it.
		if !s.buildPath(stream, true) {
			return false
		}
		begin = time.Now()
	}
	if pulled {
		defer stream.parent.done() // the extension the join took
	} else if len(b.Boundary) == 0 {
		s.streamJoin(stream, index, partial, sp.times)
	} else {
		s.boundaryJoin(sp, stream, index, out)
	}
	s.tr.Add(PhaseCycleJoin, begin, time.Now())
	return true
}

// pulls says whether the walk's last step can be taken inside a root join:
// a plain data edge, out of a prefix that has a table (not a bare start).
func (n *walk) pulls() bool {
	p := n.parent
	return n.step.edgeAnn == nil && n.step.nodeAnn == nil && (p.parent != nil || p.startAnn != nil)
}

// streamJoin is a root join with both walks built: each partition takes the
// chunks of stream's shard as they lie (table.Flat.Chunks) and finds each
// entry's one partner (partners has why there is one) in one probe of the
// partners tables of index's shard (indexPartners), laid at the first chunk
// — never where nothing is streamed. A pending table arrives as its
// superstep appended it, duplicates unfolded, which a sum cannot tell from
// folded — Σ c·c′ distributes — so it is read once, here, and never sorted.
// An operation of the load is an entry streamed.
func (s *solver) streamJoin(stream, index *walk, partial []uint64, times uint64) {
	full := sig.Full(s.k)
	s.be.Run(func(w int) {
		var load int64
		var poll int
		var sum uint64
		var pt partnerIdx
		vu, need := ^uint64(0), sig.Sig(0) // (None, None) is no entry's pair
		laid, stopped := false, false
		stream.table.Shard(w).Chunks(func(chunk []table.Ent) {
			if stopped {
				return
			}
			if !laid {
				laid = true
				lo, hi := s.be.Range(w)
				pt = indexPartners(lo, hi, index.table.Shard(w).Ents())
			}
			for i := range chunk {
				k := &chunk[i]
				if k.VU != vu {
					vu, need = k.VU, s.colorOf(k.U()).Union(s.colorOf(k.V()))
				}
				load++
				if stopped = s.canceled(&poll); stopped {
					return
				}
				sum += k.C * pt.of(k.V()).probe(k.U(), full.Without(k.S).Union(need))
			}
		})
		pt.release()
		s.be.AddLoad(w, load)
		partial[w] += sum * times
	})
}

// boundaryJoin is the join of a block with boundary nodes: an entry's
// partners are the other walk's entries at its (V, U) whose signatures meet
// its own in exactly {χ(U), χ(V)}. Both walks are compacted, so both shards
// are sorted by (V, U), and each partition merges them: it walks stream's
// shard in order, and one forward-only cursor into index's hands it each
// (V, U) group once. An operation of the load is a pair examined; the
// products go to out, keyed by the block's boundary mappings, in one Step.
func (s *solver) boundaryJoin(sp split, stream, index *walk, out *engine.Sharded) {
	streamPlus := stream == sp.plus
	s.be.Step(out, func(w int, to *engine.Lanes) {
		var load int64
		var poll int
		ents, others := stream.table.Shard(w).Ents(), index.table.Shard(w).Ents()
		vu, need := ^uint64(0), sig.Sig(0) // (None, None) is no entry's pair
		var grp []table.Ent
		for i, j := 0, 0; i < len(ents); i++ {
			k := &ents[i]
			if k.VU != vu {
				vu, need = k.VU, s.colorOf(k.U()).Union(s.colorOf(k.V()))
				for ; j < len(others) && others[j].VU < vu; j++ {
				}
				g := j
				for ; j < len(others) && others[j].VU == vu; j++ {
				}
				grp = others[g:j]
			}
			load += int64(len(grp))
			if s.canceledAfter(&poll, 1+len(grp)) {
				break
			}
			if len(grp) > 0 {
				meetGroup(to, sp.locs, streamPlus, k, grp, need)
			}
		}
		s.be.AddLoad(w, load)
	})
}

// meetGroup emits k's product with each entry of grp, its (V, U) group in the
// other walk, whose signature meets k's in exactly need. It is a function of
// its own so that its loop keeps its index in a register: inlined into the
// merge, the index was spilled every pair, and the join took a third longer.
func meetGroup(to *engine.Lanes, locs []bndLoc, streamPlus bool, k *table.Ent, grp []table.Ent, need sig.Sig) {
	for g := range grp {
		kp, e := k, &grp[g]
		if kp.S.Inter(e.S) != need {
			continue
		}
		if !streamPlus {
			kp, e = e, kp
		}
		total, comb := kp.C*e.C, kp.S.Union(e.S)
		switch len(locs) {
		case 1:
			va := vertexAt(locs[0], kp, e)
			to.At(va).AddEnt(table.UnaryEnt(va, comb, total))
		case 2:
			va := vertexAt(locs[0], kp, e)
			vb := vertexAt(locs[1], kp, e)
			to.At(vb).AddEnt(table.BinaryEnt(va, vb, comb, total))
		}
	}
}

// pullJoin is a root join whose streamed walk is never built: one
// Backend.Pull superstep with no output table, in which the owner of each V,
// for each neighbour x of V, reads x's run of the walk's parent where it
// lies (runIdx), extends each entry to V as edgeJoin's push form would —
// the same order and colour filters — and probes for its partner at once.
// V's partners table (partners has why one probe finds the partner) is
// laid from V's run of the other walk's shard when the first non-empty
// neighbour run of V is reached, into one run of pooled words that the task
// reuses for every V and grows when a V needs more. The load is the push
// form's, step for step: each partition charges its own parent runs ×
// degree, as the edge step did, and one per entry extended, as the join
// did; a run read from another partition is a message. It reports false,
// having read nothing, where the backend cannot pull.
func (s *solver) pullJoin(stream, index *walk, partial []uint64, times uint64) bool {
	parent, ordered, full := stream.parent.table, stream.ordered, sig.Full(s.k)
	runs := s.indexRuns(parent)
	defer runs.release()
	return s.be.Pull(nil, parent, func(w int, _ *table.Flat, from *engine.Lanes) (sent int) {
		var load int64
		var poll int
		var sum uint64
		var scratch table.Scratch
		defer scratch.Return() // what it holds at the end, grown or not
		lo, hi := s.be.Range(w)
		ents, e := index.table.Shard(w).Ents(), 0
	scan:
		for v := lo; v < hi; v++ {
			nbrs := s.g.Neighbors(v)
			load += int64(len(runs.of(v, w)) * len(nbrs))
			cv, rank := s.colorOf(v), s.g.Rank(v)
			b := e
			e = runEnd(ents, b, v)
			var pt partners
			for _, x := range nbrs {
				run := runs.of(x, from.Owner(x))
				if s.canceledAfter(&poll, len(run)) {
					break scan
				}
				if len(run) == 0 {
					continue
				}
				if x < lo || x >= hi {
					sent++
				}
				if pt == nil {
					size := partnerWords(e - b)
					if size > len(scratch.Words) {
						scratch.Return()
						scratch = table.BorrowWords(size)
					}
					pt = scratch.Words[:size]
					pt.lay(ents[b:e])
				}
				for i := range run {
					k := &run[i]
					if !k.S.Disjoint(cv) || ordered && s.g.Rank(k.U()) <= rank {
						continue
					}
					load++
					// The entry extended is (V, U, S ∪ χ(V)), and Full ∖ S
					// holds χ(V): its partner's signature is (Full ∖ S) ∪ χ(U).
					sum += k.C * pt.probe(k.U(), full.Without(k.S).Union(s.colorOf(k.U())))
				}
			}
		}
		s.be.AddLoad(w, load)
		partial[w] += sum * times
		return sent
	})
}

// runIdx finds any vertex's run in a compacted walk table: x's entries, x in
// partition w, are ents[w][at[x+w] : at[x+w+1]] — partition w's offsets
// are its vertices' and one past its last. The offsets are one run of
// pooled words, laid by every partition for its own vertices in one Run,
// and given back by release.
type runIdx struct {
	ents [][]table.Ent
	at   table.Scratch
}

func (s *solver) indexRuns(t *engine.Sharded) runIdx {
	r := runIdx{ents: make([][]table.Ent, s.be.P()), at: table.BorrowWords(s.g.N() + s.be.P())}
	s.be.Run(func(w int) {
		ents := t.Shard(w).Ents()
		lo, hi := s.be.Range(w)
		at, j := r.at.Words[int(lo)+w:int(hi)+w+1], 0
		for v := lo; v < hi; v++ {
			at[v-lo] = uint64(j)
			for j < len(ents) && ents[j].V() == v {
				j++
			}
		}
		at[hi-lo] = uint64(j)
		r.ents[w] = ents
	})
	return r
}

// of returns the run of x, a vertex of partition w.
func (r *runIdx) of(x uint32, w int) []table.Ent {
	i := int(x) + w
	return r.ents[w][r.at.Words[i]:r.at.Words[i+1]]
}

func (r *runIdx) release() { r.at.Return() }

// vertexAt extracts a boundary node's mapped vertex from the joined pair of
// flat entries according to its resolved location.
func vertexAt(loc bndLoc, plus, minus *table.Ent) uint32 {
	switch loc {
	case locStart:
		return plus.U()
	case locEnd:
		return plus.V()
	case locPlusX:
		return plus.X()
	case locPlusY:
		return plus.Y()
	case locMinusX:
		return minus.X()
	case locMinusY:
		return minus.Y()
	}
	panic(fmt.Sprintf("core: invalid boundary location %d", loc))
}
