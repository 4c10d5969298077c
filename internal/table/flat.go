// Flat is the signature-major projection table used on the solver's hot
// path. Where a hash table scatters the entries of one vertex across its
// backing array, Flat keeps entries in one dense slice sorted by (home
// vertex, other boundary, recorded vertices, signature rank): all entries
// sharing a vertex sit contiguously, and within a vertex group
// consecutive signature ranks (sig.Rank) are adjacent. Join
// loops then run as linear scans and merge-joins over plain slices —
// no hashing, no per-entry map or closure overhead, and inner accumulate
// loops the compiler can keep in registers.
//
// Writes are pending until the first read, in one of two forms. A shard
// declared as a vertex×signature matrix (SetBox: every key is one vertex
// of the shard's partition and a signature of one size) accumulates in
// place, row[rank] += c, in a box of counts (box.go) once it has been
// handed enough to repay one: no append, no sort, no fold — and a join
// that writes many entries to one vertex takes the vertex's row (Row) and
// adds into it itself. Any other shard appends entries to unsorted chunks,
// and the first read compacts them by a packed key (compact.go) — indexed
// into a dense array of counts where the keys that arrived span few enough
// values, radix-sorted as (key, count) records otherwise. Either way the
// first read through Ents leaves one sorted, folded slab of entries. That
// is the form readers see, but for three that take a table as it lies:
// Chunks hands out pending chunks unsorted, Row an open box's rows, and
// MoveBox an open box whole to another matrix shard of the same rows. The
// solver's tables are built by a burst of adds during one superstep and
// then scanned read-only by the next join, so each table is compacted at
// most once.
//
// Storage comes from, and goes back to, a process-wide pool of entry
// slabs (slab.go). A table that fills its chunk chains it and takes
// another — nothing is copied to grow — Absorb moves another table's
// chunks over by relinking them, compaction borrows its buffers, and
// Release hands everything back when the owner knows the table is dead, so
// the next table starts from recycled memory instead of doubling from
// nothing.
package table

import (
	"slices"

	"repro/internal/sig"
)

// Ent is one flat-table entry: a Key packed into two uint64 comparison
// words plus the signature and count. VU holds V in the high half and U in
// the low half, so ordering by VU groups entries by their home vertex V
// (binary entries are homed at V's owner; unary entries carry V = None and
// therefore sort into a single group ordered by U). XY packs the recorded
// vertices X and Y the same way.
type Ent struct {
	VU uint64 // uint64(V)<<32 | uint64(U)
	XY uint64 // uint64(X)<<32 | uint64(Y)
	S  sig.Sig
	C  uint64
}

// Ent packs k and c into an Ent.
func (k Key) Ent(c uint64) Ent {
	return Ent{
		VU: uint64(k.V)<<32 | uint64(k.U),
		XY: uint64(k.X)<<32 | uint64(k.Y),
		S:  k.S,
		C:  c,
	}
}

// BinaryEnt packs the two-boundary entry (u, v, s) ↦ c, homed at v. It is
// Binary(u, v, s).Ent(c) for the join loops: a Key has too many fields for
// the compiler to keep in registers, so building one per entry means
// narrow stores read straight back as wide words.
func BinaryEnt(u, v uint32, s sig.Sig, c uint64) Ent {
	return Ent{VU: uint64(v)<<32 | uint64(u), XY: ^uint64(0), S: s, C: c}
}

// UnaryEnt packs the single-boundary entry (u, s) ↦ c: Unary(u, s).Ent(c).
func UnaryEnt(u uint32, s sig.Sig, c uint64) Ent { return BinaryEnt(u, None, s, c) }

// U returns the key's U vertex.
func (e Ent) U() uint32 { return uint32(e.VU) }

// V returns the key's V vertex (None for unary entries).
func (e Ent) V() uint32 { return uint32(e.VU >> 32) }

// X returns the key's first recorded vertex (None if unused).
func (e Ent) X() uint32 { return uint32(e.XY >> 32) }

// Y returns the key's second recorded vertex (None if unused).
func (e Ent) Y() uint32 { return uint32(e.XY) }

// Key reconstructs the entry's Key.
func (e Ent) Key() Key {
	return Key{U: e.U(), V: e.V(), X: e.X(), Y: e.Y(), S: e.S}
}

// cmpEnt orders entries by (VU, XY, signature rank). Entries comparing
// equal have identical keys.
func cmpEnt(a, b Ent) int {
	switch {
	case a.VU < b.VU:
		return -1
	case a.VU > b.VU:
		return 1
	case a.XY < b.XY:
		return -1
	case a.XY > b.XY:
		return 1
	case a.S.Rank() < b.S.Rank():
		return -1
	case a.S.Rank() > b.S.Rank():
		return 1
	}
	return 0
}

// Flat is a projection table stored as a sorted dense slice of Ent (see
// the package comment on flat.go). The zero value is an empty table ready
// for use. Not safe for concurrent mutation; the engine gives each
// partition its own shard.
//
// An entry whose count is 0 is absent: a box cell that holds 0 is an empty
// cell, so every form drops a key whose counts sum — wrap — to exactly 0.
type Flat struct {
	sorted   *slab // the compacted entries, sorted & deduped; nil if none
	fill     []Ent // fillSlab's entries so far: the pending chunk Add appends to
	fillSlab *slab
	full     *slab // pending chunks that filled up or were absorbed
	// box is set on a shard declared a vertex×signature matrix (SetBox).
	// Once open it takes every add and the chunk fields above stay empty,
	// with len(fill) == cap(fill) == 0 steering AddEnt to it.
	box *Box
}

// chunkEnts is the size of a pending chunk: 256 entries, 8 KiB. One size
// makes every idle chunk fit every table that needs one — a superstep has
// a lane per worker and partition open at once — and keeps the room the
// last chunk of each wastes small.
const chunkEnts = 1 << 8

// NewFlat returns a table pre-sized for at least capacity entries.
func NewFlat(capacity int) *Flat {
	t := &Flat{fillSlab: getSlab(capacity)}
	t.fill = t.fillSlab.ents
	return t
}

// Add accumulates c into the entry for k (inserting it if absent).
func (t *Flat) Add(k Key, c uint64) { t.AddEnt(k.Ent(c)) }

// AddEnt accumulates e.C into the entry for e's key (inserting it if
// absent). The entry lands in a pending chunk — duplicate keys are folded
// together when the table is compacted — or, off the inlined path, in the
// shard's box. It is the join loops' one write, a bounds check and an
// append, and must stay inlinable.
func (t *Flat) AddEnt(e Ent) {
	if len(t.fill) == cap(t.fill) {
		t.addFull(e)
		return
	}
	t.fill = append(t.fill, e)
}

// addFull is AddEnt with no room in the fill chunk: the shard has a box
// open, or is due one, and the entry goes into it, or the chunk is full, or
// the first, and chains.
func (t *Flat) addFull(e Ent) {
	if b := t.box; b != nil && (b.words != nil || t.boxDue(e)) {
		b.add(e)
		b.adds++
		return
	}
	t.retire()
	t.fillSlab = getSlab(chunkEnts)
	t.fill = append(t.fillSlab.ents, e)
}

// retire moves the fill chunk, if any, onto the list of full chunks (an
// empty one goes back to the pool: the list holds no empty chunk).
func (t *Flat) retire() {
	s := t.fillSlab
	if s == nil {
		return
	}
	if s.ents = t.fill; len(s.ents) > 0 {
		s.next, t.full = t.full, s
	} else {
		putSlab(s)
	}
	t.fillSlab, t.fill = nil, nil
}

// Absorb moves every entry of src into t's pending form, leaves src empty
// and returns how many entries moved — for a box, as many as were added to
// it, however many cells they share. A box is added to a box of the same
// shape cell by cell; chunks change hands whole when t keeps chunks — a
// table staged elsewhere is handed over, not copied — and are added entry
// by entry when t keeps a box.
func (t *Flat) Absorb(src *Flat) (moved int) {
	if sb := src.box; sb != nil && sb.words != nil {
		if tb := t.box; tb != nil && tb.Shape == sb.Shape {
			if tb.words == nil {
				t.openBox(sb.rk) // what filled src's box is added to t: t is as due
			}
			moved = sb.adds
			tb.merge(sb)
		} else {
			src.compact(nil) // forms differ: the box's entries move as a chunk
		}
	}
	src.retire()
	if src.sorted != nil {
		// Compacted entries are just more pending entries here.
		src.sorted.next, src.full = src.full, src.sorted
	}
	for s := src.full; s != nil; {
		next := s.next
		moved += len(s.ents)
		if t.box != nil {
			for _, e := range s.ents {
				t.AddEnt(e)
			}
			putSlab(s)
		} else {
			s.next, t.full = t.full, s
		}
		s = next
	}
	*src = Flat{box: src.box}
	return moved
}

// Release empties the table and returns its slabs to the pool. The caller
// must hold no slice obtained from Ents: the memory is reused by the next
// table that asks for it.
func (t *Flat) Release() {
	t.retire()
	putSlab(t.sorted)
	putSlabs(t.full)
	if t.box != nil {
		t.box.close()
	}
	*t = Flat{box: t.box}
}

// compact restores the invariant that every entry is in sorted, once: it
// sweeps the pending box or sorts and folds the pending chunks. Only a
// table that was read and then written again already has compacted
// entries; they are folded in with the rest. stop, if not nil, is polled
// between the passes over the entries; once it returns true compact gives
// its buffers back, leaves the pending entries pending and reports false.
func (t *Flat) compact(stop func() bool) bool {
	if t.box != nil && t.box.words != nil {
		return t.sweepBox(stop)
	}
	if t.full == nil && len(t.fill) == 0 {
		return true
	}
	t.retire()
	if t.sorted != nil {
		t.sorted.next, t.full, t.sorted = t.full, t.sorted, nil
	}
	out := sortChunks(t.full, stop)
	if out == nil {
		return false
	}
	t.sorted, t.full = out, nil
	return true
}

// Build compacts the table as its first read would and returns the number
// of distinct keys — unless stop, polled between the passes of the
// compaction, returns true first: then the table is left unread, as
// pending as it was, and ok is false.
func (t *Flat) Build(stop func() bool) (n int, ok bool) {
	if !t.compact(stop) {
		return 0, false
	}
	return len(t.Ents()), true
}

// Len returns the number of distinct keys stored.
func (t *Flat) Len() int { return len(t.Ents()) }

// Get returns the count stored for k (0 if absent).
func (t *Flat) Get(k Key) uint64 {
	ents := t.Ents()
	if i, ok := slices.BinarySearchFunc(ents, k.Ent(0), cmpEnt); ok {
		return ents[i].C
	}
	return 0
}

// Ents returns the table's entries sorted by (VU, XY, signature rank),
// deduped. The slice aliases the table's storage: callers must treat it
// as read-only and must not Add to, Absorb into or Release the table while
// holding it.
func (t *Flat) Ents() []Ent {
	t.compact(nil)
	if t.sorted == nil {
		return nil
	}
	return t.sorted.ents
}

// Iter calls f for every entry in sorted (VU, XY, signature-rank) order;
// iteration stops if f returns false. The table must not be mutated
// during iteration.
func (t *Flat) Iter(f func(Key, uint64) bool) {
	for _, e := range t.Ents() {
		if !f(e.Key(), e.C) {
			return
		}
	}
}

// Chunks calls f with the table's entries as they lie — compacted or
// pending, duplicates unfolded, one non-empty chunk at a time in no
// particular order — without sorting anything. A pending box has no
// entries lying anywhere: it is swept first (its rows as they lie are
// Row's and MoveBox's to hand out). The slices alias the table's storage.
func (t *Flat) Chunks(f func(ents []Ent)) {
	if t.box != nil && t.box.words != nil {
		t.compact(nil)
	}
	if t.sorted != nil {
		f(t.sorted.ents)
	}
	if len(t.fill) > 0 {
		f(t.fill)
	}
	for c := t.full; c != nil; c = c.next {
		f(c.ents)
	}
}

// Total returns the sum of all counts. Pending duplicates sum the same as
// folded ones, so chunks need no compaction.
func (t *Flat) Total() (total uint64) {
	t.Chunks(func(ents []Ent) {
		for i := range ents {
			total += ents[i].C
		}
	})
	return total
}
