package table

import "repro/internal/sig"

// Shape declares a shard whose every key is one vertex and a signature
// that holds the vertex's colour — the vertex in [Lo, Lo+N), the shard's
// partition, the other key slots None — i.e. the partition's rows of the
// |V| × C(k−1,h−1) count matrix of the tree DP: a start-free walk's table
// (the vertex is the key's V) or a unary projection (the vertex is its U).
// A box has a cell per (vertex, signature with the vertex's colour) and
// nowhere to keep a second vertex or a recorded X or Y: the declarer —
// core's newTable, solveLeaf and solveCycle — answers for the other half
// of VU being None and XY being ^0 in every entry, and a box checks the
// entry it opens on (ranking), not each add. A signature without its
// vertex's colour has no cell: it panics at every add.
type Shape struct {
	Lo, N  uint32
	K      uint8   // colours: signatures are bitmaps below 1<<K
	Shift  uint8   // where VU holds the vertex: 32 for V (U = None), 0 for U (V = None)
	Colors []uint8 // the partition's colouring: Colors[v−Lo] is vertex v's colour
}

// Box is the pending form of a shard with a Shape: N rows of C(K−1,h−1)
// counts, h the size of the first signature added, indexed by (vertex − Lo,
// sig.Own position in the vertex's colour's row) and accumulated in place.
// The header is the
// caller's to allocate (one array per sharded table); the counts are a
// pooled slab viewed as words, taken when the box is due (boxDue) and given
// back by the sweep that turns them into sorted entries — or by the Release
// of a table whose readers took the rows as they lie (Rows, Total, MoveBox).
type Box struct {
	Shape
	rk    *sig.Own // of the open box's signature size
	w     int      // a row's cells, C(K−1,h−1)
	words []uint64 // the open box, N·w counts; nil while none is open
	slab  *slab    // words' storage
	adds  int      // entries added to the open box through AddEnt (Absorb's count)
}

// boxCap bounds one box: 2^15 words, 256 KiB. It does not bound what a
// join touches: a pushed superstep's destination working set is a box per
// destination partition per staging goroutine — on tree8-90k 512 boxes of
// 36 rows × 35, about 5 MB, written one (run, neighbour) row at a time. A
// pulled one (core's pullEdge) writes one row at a time, once, and reads
// its sources' rows where they lie. A shard whose box would be larger keeps
// chunks while it is written, boxed at compaction if dense by then
// (boxDense). A row holds only the signatures with its vertex's colour, so
// with 512 partitions an 18 k-vertex graph at k = 8 is far below it (36
// rows of at most 35) and a million vertices at k = 10 far above (1954 rows
// of 126). Measured on tree8-90k: adds into one 10 MB matrix per table
// miss cache on every row, 16 ns each; into per-shard boxes of this size,
// 2–3. The benchmark has no workload near the cap. By hand (CHANGES.md),
// bintree10 on dense R-MAT graphs at k = 10, h = 5: up to 260 rows of 126
// fit, so R-MAT 2^17 (256 rows to a shard) boxes as it is written, where
// at C(10,5) = 252 cells a row it kept chunks and boxed at compaction.
// Where the cap should be is open.
const boxCap = 1 << 15

// SetBox declares t, which must be empty, a shard of shape s with b as its
// header. Adds accumulate in a box once boxDue opens it, in chunks until
// then; chunks still pending at compaction go into the box if boxDense
// opens it. The declaration holds for the table's life.
func (t *Flat) SetBox(b *Box, s Shape) {
	*b = Box{Shape: s}
	t.box = b
}

// ranking returns the ranking a box of shape s opens with on e, an entry of
// the shard, and the cells the box then has. It panics if e has a vertex in
// the other half of VU or a recorded X or Y: added to a box, those would be
// dropped and the entry aliased onto its (vertex, signature) cell. It
// panics, too, on a vertex outside the partition or a signature without
// the vertex's colour, which no row has a cell for.
func (s Shape) ranking(e Ent) (rk *sig.Own, cells int) {
	if e.XY != ^uint64(0) || uint32(e.VU>>(32-s.Shift)) != None {
		panic("table: a key with a second or a recorded vertex in a shard declared a vertex×signature matrix")
	}
	if !e.S.Has(s.Colors[uint32(e.VU>>s.Shift)-s.Lo]) {
		panic("table: a signature without its vertex's colour in a shard declared a vertex×signature matrix")
	}
	rk = sig.OwnOf(int(s.K), e.S.Size())
	return rk, int(s.N) * len(rk.Sigs[0])
}

// boxDue decides, for a declared shard with no box open that is out of room
// — at its first add, e, and whenever a chunk fills — whether to open the
// box now, and does. A box over boxCap does not open while the shard is
// written: it keeps chunks, and compaction boxes it if it is dense by then
// (boxDense). Otherwise it opens once it would take at most twice the bytes
// of the chunks the shard has filled plus the one it would take next, which
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
	rk, cells := t.box.ranking(e)
	if cells > boxCap || cells > 2*entWords*(len(t.fill)+chunkEnts+t.chained()) {
		return false
	}
	t.openBox(rk)
	return true
}

// boxDense is boxDue at compaction, the other half of the one decision
// between dense and sparse: it opens the box of a declared shard with none
// open once the pending entries are at least a quarter of its cells, over
// boxCap or not. The box is then no larger than the entries it replaces (8
// bytes a cell, 32 an entry), and sweeping it reads less than one pass of a
// record sort would write. boxDue opens a shard within boxCap at half this
// density, so what opens here is one over the cap: at k = 10, h = 5, a
// shard of more than 260 rows of 126. (On R-MAT 2^17, 256 rows to a shard,
// that was 2048 shards a bintree10 trial while a row had all C(10,5) = 252
// cells, once indexed by packed key or sorted as records.)
func (t *Flat) boxDense() bool {
	t.retire()
	if t.full == nil || len(t.full.ents) == 0 { // an empty slab: compacted entries that summed to 0
		return false
	}
	rk, cells := t.box.ranking(t.full.ents[0])
	if cells > entWords*t.chained() {
		return false
	}
	t.openBox(rk)
	return true
}

// keepsChunks reports whether t takes chunks of entries like e whole: it has
// no box open and none a chunk fill could open (undeclared, or over boxCap).
func (t *Flat) keepsChunks(e Ent) bool {
	if t.box == nil || t.box.words != nil {
		return t.box == nil
	}
	_, cells := t.box.ranking(e)
	return cells > boxCap
}

// chained counts the entries of t's full chunks.
func (t *Flat) chained() (n int) {
	for c := t.full; c != nil; c = c.next {
		n += len(c.ents)
	}
	return n
}

// openBox opens t's box for signatures ranked by rk and moves the pending
// chunks into it.
func (t *Flat) openBox(rk *sig.Own) {
	b := t.box
	b.open(rk)
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

// open takes b's words, uncleared, for signatures ranked by rk.
func (b *Box) open(rk *sig.Own) {
	b.rk, b.w = rk, len(rk.Sigs[0])
	b.slab, b.words = getWords(int(b.N) * b.w)
}

// close gives the open box, if any, back to the pool.
func (b *Box) close() {
	putSlab(b.slab)
	b.rk, b.w, b.words, b.slab, b.adds = nil, 0, nil, nil, 0
}

// add accumulates e into the open box. A vertex outside the partition, or a
// signature without its colour or of another size than the box was opened
// for, indexes out of range and panics.
func (b *Box) add(e Ent) {
	r := uint32(e.VU>>b.Shift) - b.Lo
	c := b.Colors[r]
	i := int(r) * b.w
	b.words[i : i+b.w][b.rk.Pos(e.S, c)] += e.C
}

// Row returns the row of vertex v in t's open box — v's counts, C(K−1,h−1)
// of them, indexed by rk.Pos of a signature and v's colour — and the box's
// ranking, or nil and nil if t has no box open. It is AddEnt for a step
// that writes a vertex's row of a matrix whole, in place (core's pull steps
// and nodeJoin, after OpenRows): its counts are summed into the row, with
// no entry packed and no call made, and no add counted: Absorb's count,
// sim's messages, is AddEnt's, so a stage must not be written through Row
// (a pushed step appends with AddEnt). Those steps read their sources' rows
// through Row too. A vertex outside the partition, or a signature without
// v's colour or of another size than the box's, indexes out of range and
// panics, as through AddEnt. Entries compacted before the box opened — a
// table read and then written again — are not in the row. Row must stay
// inlinable.
func (t *Flat) Row(v uint32) (row []uint64, rk *sig.Own) {
	b := t.box
	if b == nil || b.words == nil {
		return nil, nil
	}
	i := int(v-b.Lo) * b.w
	return b.words[i : i+b.w], b.rk
}

// Cells returns t's open box whole — its rows back to back, vertex v's
// C(K−1,h−1) counts at (v−Lo)·C(K−1,h−1) — or nil if t has no box open. It
// is Row for a reader of many rows of many shards (core's pull steps),
// which keeps each shard's cells at hand where Row reads the shard's header
// and its box's at every call.
func (t *Flat) Cells() []uint64 {
	if t.box == nil {
		return nil
	}
	return t.box.words
}

// OpenRows opens the box of t — declared, and holding nothing — for
// signatures ranked by rk, without clearing its cells, and reports whether
// it did: a box over boxCap does not open, and t keeps chunks, nor does one
// of no rows. It is for a writer that owns t and writes each of its rows
// whole, once (Row), before anything reads it — a pull step's, whose rows
// are its own to sum — so a box is not cleared only to be overwritten.
func (t *Flat) OpenRows(rk *sig.Own) bool {
	b := t.box
	if b.words != nil || !t.Boxed() {
		panic("table: rows opened on a shard that holds entries")
	}
	if !BoxFits(int(b.N), rk) {
		return false
	}
	b.open(rk)
	return true
}

// BoxFits reports whether rows rows ranked by rk make a box OpenRows opens:
// at least one, and no more than boxCap cells.
func BoxFits(rows int, rk *sig.Own) bool { return rows > 0 && rows*len(rk.Sigs[0]) <= boxCap }

// Boxed reports whether every entry of t lies in an open box — none in
// chunks or compacted beside it — or t holds none: then once writes stop,
// Row reads t's rows where they lie, from any task.
func (t *Flat) Boxed() bool { return len(t.fill) == 0 && t.full == nil && t.sorted == nil }

// MoveBox hands src's open box, whole, to t — an empty shard declared with
// the same rows (Lo, N, K, Colors), whichever half of VU holds their vertex — and
// reports false, moving nothing, if src has no box open. It is the
// projection that keeps the vertex and the signature and moves the vertex
// to the other key half — a start-free walk's table (None, v, α) becoming a
// leaf block's (v, None, α), and back, a leaf block's becoming the first
// table of the start-free walk it annotates — done by handing the slab
// over, where a projection entry by entry adds every cell again; no cell is
// read. A box of other rows would be read at other vertices or signatures,
// and a shard with entries of its own would lose them: either panics. src
// is left empty.
func (t *Flat) MoveBox(src *Flat) bool {
	sb := src.box
	if sb == nil || sb.words == nil {
		return false
	}
	tb := t.box
	if tb == nil || tb.Lo != sb.Lo || tb.N != sb.N || tb.K != sb.K || !sameColors(tb.Colors, sb.Colors) {
		panic("table: a box moved into a shard of other rows")
	}
	if t.retire(); tb.words != nil || t.full != nil || t.sorted != nil {
		panic("table: a box moved into a shard that holds entries")
	}
	src.foldSorted()
	tb.rk, tb.w, tb.words, tb.slab, tb.adds = sb.rk, sb.w, sb.words, sb.slab, sb.adds
	*sb = Box{Shape: sb.Shape}
	return true
}

// sameColors reports whether a and b are one colouring of one partition:
// the same array, not equal values — two shards' rows are the same rows
// only if they are the same vertices.
func sameColors(a, b []uint8) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
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

// NonZero counts the cells that hold a count: the entries a sweep will
// make. Most cells of a box are empty, so the test is arithmetic, not a
// branch: c|−c has its top bit set iff c ≠ 0.
func NonZero(cells []uint64) (n int) {
	for _, c := range cells {
		n += int((c | -c) >> 63)
	}
	return n
}

// Census is NonZero and a bound on the largest count of cells in one pass:
// what a load pass charges, and the bound the counts it reads are checked
// by. The bound is the cells' bitwise or — no count exceeds it, and it is
// less than twice the largest — which costs the loop one instruction and
// no compare.
func Census(cells []uint64) (n int, bound uint64) {
	for _, c := range cells {
		n += int((c | -c) >> 63)
		bound |= c
	}
	return n, bound
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
	if n := NonZero(b.words); n > 0 {
		t.sorted = getSlab(n + b.w) // appendRow's room for a whole row
		for r := 0; r < int(b.N); r++ {
			t.sorted.ents = b.appendRow(t.sorted.ents, r)
		}
	}
	b.close()
	return true
}

// appendRow appends to ents the entries row r of the open box stands for:
// one per cell that holds a count, in cmpEnt's order. ents must have room
// for a whole row: every cell is written and only those that hold a count
// are kept, with no branch per cell — whether a cell of a half-filled row
// holds a count is a coin toss.
func (b *Box) appendRow(ents []Ent, r int) []Ent {
	sigs := b.rk.Sigs[b.Colors[r]]
	w, n := b.w, len(ents)
	vu := uint64(b.Lo+uint32(r))<<b.Shift | uint64(None)<<(32-b.Shift) // None in the other half
	cells, room := b.words[r*w:(r+1)*w], ents[n:n+w]
	for j, s := range sigs {
		c := cells[j]
		room[0] = Ent{VU: vu, XY: ^uint64(0), S: s, C: c}
		k := int((c | -c) >> 63)
		room, n = room[k:], n+k
	}
	return ents[:n]
}
