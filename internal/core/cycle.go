package core

import (
	"fmt"

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
		out = engine.NewMatrix(s.be, s.k, false) // (π(boundary), α) ↦ count
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
// last superstep and never compacted. It may in a root block, whose join
// makes a number, if this join is all that is still to read it: the walk's
// table is not built yet, no other walk extends it and no other split joins
// it (one use left), and it has a step to be built by. If exactly one walk
// may pend, it streams; if both may or neither, the one with more steps —
// the larger table, as a rule: the index then is the smaller — and of two
// equally long ones P−. The trie decides, nothing else: there is no option.
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
// folding in both node annotations, then projected onto π(a) (§5.2).
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
	out := engine.NewMatrix(s.be, s.k, false)
	if !s.buildPath(walk, true) {
		return out
	}
	// Project (π(a), α) out of the walk's keys: local, entries live at
	// owner(V). (None, v, α) ↦ (v, None, α) keeps the partition, the rows and
	// the signatures, so the walk's table is left pending and a shard's open
	// box moves over whole, its cells the entries projected; a shard whose
	// box never opened is compacted here, polling as track does, and its
	// entries are added one by one.
	defer s.tr.Start(PhaseLeafJoin)()
	s.be.Run(func(w int) {
		sh, src := out.Shard(w), walk.table.Shard(w)
		var load int64
		var poll int
		if cells, ok := sh.MoveBox(src); ok {
			load = int64(cells)
		} else if _, ok := src.Build(s.aborted); ok {
			ents := src.Ents()
			for i := range ents {
				e := &ents[i]
				load++
				if s.canceled(&poll) {
					break
				}
				sh.AddEnt(table.UnaryEnt(e.V(), e.S, e.C))
			}
		}
		s.be.AddLoad(w, load)
	})
	walk.done()
	return s.track(out)
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
// 1/2-boundary blocks, or summed into partial for a root cycle. Both tables
// are homed at the owner of V, so the join itself is local; only the output
// entries travel. It reports false, having joined nothing, if the run was
// canceled before both tables were built.
//
// There is one join, and it streams one table against an index of the
// other: each partition takes the chunks of stream's shard as they lie
// (table.Flat.Chunks), finds every entry's (V,U) group in index's sorted
// shard (groupIdx, built here and given back here; not at all where nothing
// is streamed) and meets the entry with the group. A table that was
// compacted arrives as one sorted chunk and the cursor reads it as a merge;
// a pending one arrives as its superstep appended it, duplicates unfolded,
// which a sum cannot tell from folded — Σ c·c′ distributes — so a root
// block's largest table is read once, here, and never sorted.
//
// In a root block the two walks cover every colour between them and share
// χ(U) and χ(V) alone, so an entry's partner signature is forced: the match
// is one load in a dense group's partner row (groupIdx.partner), a binary
// search elsewhere (withSig); an operation of the load is an entry streamed.
// With boundary nodes the subquery is smaller than the query, the partner is
// any signature that meets the entry's in exactly {χ(U), χ(V)}, and the
// group is scanned; an operation is a pair examined.
func (s *solver) joinSplit(b *decomp.Block, sp split, out *engine.Sharded, partial []uint64) bool {
	root, full := len(b.Boundary) == 0, sig.Full(s.k)
	stream, index, pend := sp.sides(root)
	if !s.buildPath(index, false) || !s.buildPath(stream, pend) {
		return false
	}
	defer sp.plus.done()
	defer sp.minus.done()
	streamPlus := stream == sp.plus
	var colors []uint8 // a root join's index lays out partner rows
	if root {
		colors = s.colors
	}
	produce := func(w int, to *engine.Lanes) {
		var load int64
		var poll int
		var sum uint64
		var ix groupIdx
		var cur groupCursor
		var need sig.Sig
		stopped := false
		stream.table.Shard(w).Chunks(func(chunk []table.Ent) {
			if stopped {
				return
			}
			if ix.rows == nil {
				lo, hi := s.be.Range(w)
				ix = indexGroups(lo, hi, index.table.Shard(w).Ents(), colors, s.k)
				cur = ix.cursor()
			}
			for i := range chunk {
				k := &chunk[i]
				if k.VU != cur.vu {
					need = s.colorOf(k.U()).Union(s.colorOf(k.V()))
				}
				grp, g := cur.seek(k.VU)
				if root {
					load++
					if c, ok := ix.partner(g, k.S, need); ok {
						sum += k.C * c
						grp = nil
					} else {
						grp = withSig(grp, full.Without(k.S).Union(need))
					}
				} else {
					load += int64(len(grp))
				}
				if stopped = s.canceledAfter(&poll, 1+len(grp)); stopped {
					return
				}
				for j := range grp {
					kp, e := k, &grp[j]
					if kp.S.Inter(e.S) != need {
						continue
					}
					if !streamPlus {
						kp, e = e, kp
					}
					total := kp.C * e.C
					comb := kp.S.Union(e.S)
					switch len(b.Boundary) {
					case 0:
						sum += total
					case 1:
						va := vertexAt(sp.locs[0], kp, e)
						to.At(va).AddEnt(table.UnaryEnt(va, comb, total))
					case 2:
						va := vertexAt(sp.locs[0], kp, e)
						vb := vertexAt(sp.locs[1], kp, e)
						to.At(vb).AddEnt(table.BinaryEnt(va, vb, comb, total))
					}
				}
			}
		})
		ix.release()
		s.be.AddLoad(w, load)
		if partial != nil {
			partial[w] += sum * sp.times
		}
	}
	defer s.tr.Start(PhaseCycleJoin)()
	if out != nil {
		s.be.Step(out, produce)
		return true
	}
	// Root cycle (no boundary): every product folds into the local partial
	// sum, so nothing is ever appended — run the join without a superstep,
	// and without lanes.
	s.be.Run(func(w int) { produce(w, nil) })
	return true
}

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
