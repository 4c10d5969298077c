package table

import "repro/internal/sig"

// Shape declares a shard whose every key is one vertex and a signature —
// the vertex in [Lo, Lo+N), the shard's partition, the other key slots
// None — i.e. the partition's rows of the |V| × C(k,h) count matrix of the
// tree DP: a start-free walk's table (the vertex is the key's V) or a
// unary projection (the vertex is its U). A box has a cell per (vertex,
// signature) and nowhere to keep a second vertex or a recorded X or Y: the
// declarer — core's newTable, solveLeaf and solveCycle — answers for the
// other half of VU being None and XY being ^0 in every entry, and a box
// checks the entry it opens on (ranking), not each add.
type Shape struct {
	Lo, N uint32
	K     uint8 // colours: signatures are bitmaps below 1<<K
	Shift uint8 // where VU holds the vertex: 32 for V (U = None), 0 for U (V = None)
}

// Box is the pending form of a shard with a Shape: N rows of C(K,h) counts,
// h the size of the first signature added, indexed by (vertex − Lo,
// sig.Ranking position) and accumulated in place. The header is the
// caller's to allocate (one array per sharded table); the counts are a
// pooled slab viewed as words, taken when the box is due (boxDue) and given
// back by the sweep that turns them into sorted entries — or by the reader
// that takes the rows as they lie (Row, MoveBox) and then releases them.
type Box struct {
	Shape
	rk    *sig.Ranking // of the open box's signature size
	words []uint64     // the open box, N·len(rk.Sigs) counts; nil while none is open
	slab  *slab        // words' storage
	adds  int          // entries added to the open box
}

// boxCap bounds one box: 2^15 words, 256 KiB. It does not bound what a
// join touches: a superstep's destination working set is a box per
// destination partition per staging goroutine — on tree8-90k 512 boxes of
// 36 rows × 70, about 10 MB, written one (run, neighbour) row at a time. A
// shard whose box would be larger keeps chunks, and compaction sorts the
// keys that actually arrived. With 512 partitions an 18 k-vertex graph at
// k = 8 is far below it (36 rows of 70) and a million vertices at k = 10
// far above (1954 rows of 252). Measured on tree8-90k: adds into one 10 MB
// matrix per table miss cache on every row, 16 ns each; into per-shard
// boxes of this size, 2–3. The benchmark has no workload near the cap. By
// hand (CHANGES.md, PR 21): just under it, on a dense R-MAT graph of 2^16
// vertices at k = 10 (128 rows of 252), a trial is ×4 faster than at the
// parent commit, which sorted chunks, and peaks at a third of the memory;
// just over it nothing has been measured but the sparse graph boxDue
// quotes, and what the cap should be there is open.
const boxCap = 1 << 15

// SetBox declares t, which must be empty, a shard of shape s with b as its
// header. Adds accumulate in a box once boxDue opens it, in chunks until
// then.
func (t *Flat) SetBox(b *Box, s Shape) {
	*b = Box{Shape: s}
	t.box = b
}

// ranking returns the ranking a box of shape s opens with on e, its first
// entry. It panics if e has a vertex in the other half of VU or a recorded
// X or Y: added to a box, those would be dropped and the entry aliased onto
// its (vertex, signature) cell.
func (s Shape) ranking(e Ent) *sig.Ranking {
	if e.XY != ^uint64(0) || uint32(e.VU>>(32-s.Shift)) != None {
		panic("table: a key with a second or a recorded vertex in a shard declared a vertex×signature matrix")
	}
	return sig.RankingOf(int(s.K), e.S.Size())
}

// boxDue decides, for a declared shard with no box open that is out of room
// — at its first add, e, and whenever a chunk fills — whether to open the
// box now, and does. A box over boxCap never opens: the declaration is
// dropped. Otherwise it opens once it would take at most twice the bytes of
// the chunks the shard has filled plus the one it would take next, which
// are added to it: at the first add if it is no larger than two chunks,
// never in a shard that is handed next to nothing. So a table's boxes hold
// at most twice what its chunks would have, however few of its cells are
// filled and however many workers stage a copy of it. Measured by hand
// (CHANGES.md, PR 21) on a sparse 18.5 k-vertex power-law graph at k = 12,
// 37 rows of up to 924 to a shard, 2 / 8 workers: peak RSS 318 / 306 MB
// with chunks only, 418 / 814 MB with every declared shard boxed at its
// first add, 244 / 243 MB under this rule (300 / 376 MB at four times the
// bytes); on tree8-90k the wait costs 5–8% of the boxes' gain.
func (t *Flat) boxDue(e Ent) bool {
	b := t.box
	rk := b.ranking(e)
	cells := int(b.N) * len(rk.Sigs)
	if cells > boxCap {
		t.box = nil
		return false
	}
	pending := len(t.fill) + chunkEnts
	for c := t.full; c != nil; c = c.next {
		pending += len(c.ents)
	}
	if cells > 2*entWords*pending {
		return false
	}
	t.openBox(rk)
	return true
}

// openBox opens t's box for signatures ranked by rk and moves the pending
// chunks into it.
func (t *Flat) openBox(rk *sig.Ranking) {
	b := t.box
	b.rk = rk
	b.slab, b.words = getWords(int(b.N) * len(rk.Sigs))
	clear(b.words)
	t.retire()
	for c := t.full; c != nil; c = c.next {
		for _, e := range c.ents {
			b.add(e)
		}
		b.adds += len(c.ents)
	}
	putSlabs(t.full)
	t.full = nil
}

// close gives the open box, if any, back to the pool.
func (b *Box) close() {
	putSlab(b.slab)
	b.rk, b.words, b.slab, b.adds = nil, nil, nil, 0
}

// add accumulates e into the open box. A vertex outside the partition or a
// signature of another size than the box was opened for indexes out of
// range and panics.
func (b *Box) add(e Ent) {
	w := len(b.rk.Sigs)
	i := int(uint32(e.VU>>b.Shift)-b.Lo) * w
	row := b.words[i : i+w]
	row[b.rk.Rank[e.S]] += e.C
}

// Row returns the row of vertex v in t's open box — v's counts, indexed by
// rk.Rank of a signature — and the box's ranking, or nil and nil if t has
// no box open. It is AddEnt for a join that writes many entries to one
// vertex of a matrix: each becomes row[rk.Rank[s]] += c, with no entry
// packed and no call made, and the writer books them with Added. A reader
// of a pending matrix takes its rows here too, as they lie, instead of
// sweeping them into entries. A vertex outside the partition, or a
// signature of another size than the box's, indexes out of range and
// panics, as through AddEnt. Entries compacted before the box opened — a
// table read and then written again — are not in the row. Row must stay
// inlinable.
func (t *Flat) Row(v uint32) (row []uint64, rk *sig.Ranking) {
	b := t.box
	if b == nil || b.words == nil {
		return nil, nil
	}
	w := len(b.rk.Sigs)
	i := int(v-b.Lo) * w
	return b.words[i : i+w], b.rk
}

// Added books n entries written into rows of t's open box (Row) as adds, so
// that Absorb reports them moved, as it would have had AddEnt written them.
func (t *Flat) Added(n int) { t.box.adds += n }

// MoveBox hands src's open box, whole, to t — an empty shard declared with
// the same rows (Lo, N, K), whichever half of VU holds their vertex — and
// returns the cells that hold a count: the entries t then has. It reports
// false, moving nothing, if src has no box open. It is the projection that
// keeps the vertex and the signature and moves the vertex to the other key
// half — a start-free walk's table (None, v, α) becoming a leaf block's
// (v, None, α) — done by handing the slab over, where a projection entry by
// entry adds every cell again; the cells are read once, to be counted. A
// box of other rows would be read at other vertices or signatures, and a
// shard with entries of its own would lose them: either panics. src is
// left empty.
func (t *Flat) MoveBox(src *Flat) (cells int, ok bool) {
	sb := src.box
	if sb == nil || sb.words == nil {
		return 0, false
	}
	tb := t.box
	if tb == nil || tb.Lo != sb.Lo || tb.N != sb.N || tb.K != sb.K {
		panic("table: a box moved into a shard of other rows")
	}
	if t.retire(); tb.words != nil || t.full != nil || t.sorted != nil {
		panic("table: a box moved into a shard that holds entries")
	}
	src.foldSorted()
	tb.rk, tb.words, tb.slab, tb.adds = sb.rk, sb.words, sb.slab, sb.adds
	*sb = Box{Shape: sb.Shape}
	return nonZero(tb.words), true
}

// foldSorted adds the entries t compacted before its box opened back into
// the box.
func (t *Flat) foldSorted() {
	if t.sorted == nil {
		return
	}
	for _, e := range t.sorted.ents {
		t.box.add(e)
	}
	putSlab(t.sorted)
	t.sorted = nil
}

// merge adds src's open box, of the same shape, into b's cell by cell and
// closes it.
func (b *Box) merge(src *Box) {
	if b.rk != src.rk {
		panic("table: boxes of one shape hold signatures of different sizes")
	}
	for i, c := range src.words {
		b.words[i] += c
	}
	b.adds += src.adds
	src.close()
}

// sweepBox turns t's open box, with any entries compacted earlier folded
// back in, into the sorted slab: rows ascend with the vertex and positions
// with the bitmap, so cells swept in order are entries in cmpEnt's order.
func (t *Flat) sweepBox(stop func() bool) bool {
	b := t.box
	t.foldSorted()
	if stop != nil && stop() {
		return false
	}
	if n := nonZero(b.words); n > 0 {
		t.sorted = getSlab(n)
		ents := t.sorted.ents
		// The vertex in its half of VU, None in the other.
		none := uint64(None) << (32 - b.Shift)
		w := len(b.rk.Sigs)
		for r := 0; r < int(b.N); r++ {
			vu := uint64(b.Lo+uint32(r))<<b.Shift | none
			for j, c := range b.words[r*w : (r+1)*w] {
				if c != 0 {
					ents = append(ents, Ent{VU: vu, XY: ^uint64(0), S: b.rk.Sigs[j], C: c})
				}
			}
		}
		t.sorted.ents = ents
	}
	b.close()
	return true
}
